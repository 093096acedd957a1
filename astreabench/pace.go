package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pacer sleeps with microsecond precision. The Go runtime wakes sleepers on
// a grain of about a millisecond, far too coarse to pace thousands of
// requests per second, so the pacing goroutine keeps its own OS thread, sets
// that thread's timer slack to 1 ns and sleeps in nanosleep(2). The sleep is
// a raw system call, so the pacer keeps its P while it sleeps: a P handed
// off and taken back on every request would queue the pacer behind the
// daemon for milliseconds. The thread is never unlocked: it exits with the
// goroutine, taking the setting along.
type pacer struct{}

func newPacer() pacer {
	runtime.LockOSThread()
	// Best effort: with the default 50 µs slack the sleeps are only coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return pacer{}
}

// sleep blocks the thread for about d; an interrupted sleep returns early,
// so callers re-check the clock.
func (pacer) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}
