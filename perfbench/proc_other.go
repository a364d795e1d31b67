//go:build !linux

package main

import "os/exec"

// setProcAttr is a no-op where the kernel cannot tie a child's lifetime
// to its parent; the benchmark still stops its daemons on every exit path
// it controls.
func setProcAttr(*exec.Cmd) {}

// cpuSeconds is unavailable without /proc; the busy-time metric reads 0.
func cpuSeconds(int) float64 { return 0 }
