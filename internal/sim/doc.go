// Package sim provides the discrete-event simulation kernel used by the
// month-scale Condor evaluation.
//
// The kernel is deliberately small: an event heap ordered by (time,
// sequence), a virtual clock that advances only when events fire, and
// deterministic random-number streams so a simulation run is exactly
// reproducible from its seed.
package sim
