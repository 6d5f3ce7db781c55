// Package wallclock is the analysistest fixture for the wallclock
// analyzer: reading real time outside the deadlock watchdog breaks
// virtual-time determinism.
package wallclock

import "time"

// Duration arithmetic and time.Time values are fine — the invariant is
// about observing the wall clock, not about the time package.
const opTimeout = 60 * time.Second

var epoch = time.Unix(0, 0)

func badNow() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func badSleepAndTimer() {
	time.Sleep(time.Millisecond)  // want `time.Sleep reads the wall clock`
	t := time.NewTimer(opTimeout) // want `time.NewTimer reads the wall clock`
	defer t.Stop()
	tick := time.NewTicker(opTimeout) // want `time.NewTicker reads the wall clock`
	defer tick.Stop()
}

func badSince(start time.Time) float64 {
	return time.Since(start).Seconds() // want `time.Since reads the wall clock`
}

// allowedWatchdog is the escape hatch: a reasoned //vet:allow mark on
// the flagged line (or the line above) suppresses the finding.
func allowedWatchdog() time.Time {
	deadline := time.Now().Add(opTimeout) //vet:allow wallclock — fixture watchdog: observes a real deadline on purpose
	//vet:allow wallclock — the mark on the preceding line also covers this one
	time.Sleep(time.Millisecond)
	return deadline
}

// A recognized allow mark without a reason is reported instead of
// honored: the suppressed diagnostic survives AND the mark itself is
// flagged.
func badAllowMissingReason() time.Time {
	return time.Now() //vet:allow wallclock  // want `time.Now reads the wall clock` `missing its reason`
}
