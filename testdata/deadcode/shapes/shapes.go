// Package shapes is imported by package fixture, so the scan must check it
// first.
package shapes

// Distinct counts the distinct values in vs.
func Distinct[T comparable](vs []T) int {
	seen := map[T]bool{}
	for _, v := range vs {
		seen[v] = true
	}
	return len(seen)
}
