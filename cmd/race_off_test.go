//go:build !race

package cmd_test

const raceEnabled = false
