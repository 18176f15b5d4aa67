//go:build !race

package syntax_test

const raceEnabled = false
