package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// setProcAttr makes the kernel kill a daemon whose benchmark process
// died without stopping it, so no synthd outlives a killed run.
func setProcAttr(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every mainstream Linux architecture).
const clockTicks = 100

// cpuSeconds returns the user plus system CPU time pid has used so far,
// or 0 when it cannot be read.
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTicks
}
