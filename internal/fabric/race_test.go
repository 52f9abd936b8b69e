//go:build race

package fabric

// raceBuild reports a -race build, where simulations run about 25×
// slower; workloads sized by wall-clock shrink to match.
const raceBuild = true
