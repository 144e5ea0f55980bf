package ru

import (
	"condor/internal/telemetry"
)

// Remote-execution telemetry (see docs/OBSERVABILITY.md). Interned once;
// the syscall-forward and control paths only touch atomics.
var (
	mSyscallRTT = telemetry.NewHistogram("condor_ru_shadow_syscall_seconds",
		"Round-trip time of one guest system call forwarded to its shadow at the home station.", nil)
	mPreemptLatency = telemetry.NewHistogram("condor_ru_preempt_react_seconds",
		"Delay from the scan loop detecting the owner's return (posting suspend/kill/vacate) to the executor acting on it.", nil)
	mSyscallErrors = telemetry.NewCounter("condor_ru_shadow_syscall_errors_total",
		"Forwarded system calls that failed (shadow unreachable or deadline expired).")
	mPlaceLinks = telemetry.NewCounterVec("condor_ru_place_links_total",
		"Placement handshakes by the home-to-exec link they rode: freshly dialed, or reused from the idle pool.", "outcome")
	mLinksDialed = mPlaceLinks.With("dialed")
	mLinksReused = mPlaceLinks.With("reused")
	mLinkStale   = telemetry.NewCounter("condor_ru_link_stale_msgs_total",
		"Messages on a placement link naming no job the link carries (a late notice of its previous job): requests refused, one-way notices dropped.")
)
