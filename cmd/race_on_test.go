//go:build race

package cmd_test

// raceEnabled: TestMain builds the tools with -race too.
const raceEnabled = true
