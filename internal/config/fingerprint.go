package config

import "sort"

// Fingerprint returns a stable 64-bit hash of the configuration —
// FNV-1a over the canonical Print rendering, which covers every field
// the model reads (neighbors, bindings, prefix lists, route-map
// clauses with matches and sets, holes included). Two configurations
// print identically if and only if they fingerprint identically, so
// the fingerprint is a faithful identity for delta detection across
// deployments.
func Fingerprint(c *Config) uint64 {
	return fnv1a(Print(c))
}

// DiffRouters returns the sorted names of routers whose configuration
// differs between the two deployments, including routers present in
// only one of them. Configurations shared by pointer are trivially
// equal and skipped without rendering.
func DiffRouters(old, nu Deployment) []string {
	seen := map[string]bool{}
	var out []string
	for name, oc := range old {
		nc, ok := nu[name]
		if !ok {
			out = append(out, name)
			seen[name] = true
			continue
		}
		if oc != nc && Fingerprint(oc) != Fingerprint(nc) {
			out = append(out, name)
			seen[name] = true
		}
	}
	for name := range nu {
		if _, ok := old[name]; !ok && !seen[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnv1a(s string) uint64 {
	return fnvMix(fnvOffset64, s)
}

func fnvMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
