package main

import (
	"syscall"
	"unsafe"
)

// cpuMask is a thread's CPU affinity mask, as sched_setaffinity(2)
// takes it.
type cpuMask [16]uint64

// threadAffinity returns the calling thread's CPU mask.
func threadAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setThreadAffinity sets the calling thread's CPU mask. The caller
// holds the thread with runtime.LockOSThread.
func setThreadAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinThread confines the calling thread, which the caller has locked, to
// the last CPU the process may use (the one agenpd runs on) and returns
// a function that restores its mask. With one CPU it does nothing.
func pinThread() func() {
	all, err := threadAffinity()
	if err != nil {
		return func() {}
	}
	last, n := 0, 0
	for i := 0; i < len(all)*64; i++ {
		if all[i/64]&(1<<(i%64)) != 0 {
			last, n = i, n+1
		}
	}
	if n < 2 {
		return func() {}
	}
	var one cpuMask
	one[last/64] = 1 << (last % 64)
	if setThreadAffinity(one) != nil {
		return func() {}
	}
	return func() { _ = setThreadAffinity(all) }
}
