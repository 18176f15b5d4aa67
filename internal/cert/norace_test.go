//go:build !race

package cert_test

const raceEnabled = false
