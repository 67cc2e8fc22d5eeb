//go:build !linux

// Command bench is Linux only: it reads /proc/<pid>/status, sets a
// parent-death signal on its children and times layers with the thread CPU
// clock. See README.md.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "bench: Linux only")
	os.Exit(2)
}
