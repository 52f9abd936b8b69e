//go:build !race

package fabric

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
