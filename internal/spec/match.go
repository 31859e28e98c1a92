package spec

// Matches reports whether the concrete node sequence path matches the
// pattern. Wildcards match zero or more nodes; all other elements must
// match exactly and in order. Matching is anchored at both ends: the
// pattern must cover the whole path.
func Matches(pattern Path, path []string) bool {
	return matchFrom(pattern, path)
}

func matchFrom(pattern Path, path []string) bool {
	if len(pattern) == 0 {
		return len(path) == 0
	}
	head := pattern[0]
	if head == Wildcard {
		// Try consuming 0..len(path) nodes.
		for skip := 0; skip <= len(path); skip++ {
			if matchFrom(pattern[1:], path[skip:]) {
				return true
			}
		}
		return false
	}
	if len(path) == 0 || path[0] != head {
		return false
	}
	return matchFrom(pattern[1:], path[1:])
}

// MatchesSubpath reports whether any contiguous subsequence of path
// matches the pattern — the interpretation used for forbidden-path
// requirements, where "!(P1->...->P2)" forbids any traffic whose route
// passes through P1 and later P2 regardless of what surrounds them.
func MatchesSubpath(pattern Path, path []string) bool {
	for start := 0; start <= len(path); start++ {
		for end := start; end <= len(path); end++ {
			if matchFrom(pattern, path[start:end]) {
				return true
			}
		}
	}
	return false
}
