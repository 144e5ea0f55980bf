// Package ru implements the Remote Unix facility (§2.2): the mechanism
// that turns idle workstations into cycle servers.
//
// Two halves talk over one wire connection, a link:
//
//   - The Shadow runs on the submitting machine as the surrogate of the
//     remote job. It borrows a link to the execution machine's Starter
//     (an idle one when the pool keeps one, else a fresh dial), ships the
//     job (a checkpoint blob — sequence zero for a fresh job), and then
//     serves every system call the job makes, executing it against the
//     submitting machine's files. "Any Unix system calls of a program on
//     the remote machine invokes a library routine which communicates
//     with the shadow process."
//
//   - The Starter runs on the execution machine. It accepts at most one
//     foreign job, restores the checkpoint into a VM, and interleaves
//     execution slices with owner-activity scans every ScanInterval
//     (the paper's ½ minute). When the owner returns, the job is
//     suspended immediately — "the CPUs are immediately returned" — and
//     kept for SuspendGrace (the paper's 5 minutes) in the hope the
//     owner leaves again; only then is it checkpointed and shipped back
//     (§4). The §4 alternative, killing immediately and relying on
//     periodic checkpoints, is available as VacatePolicy/
//     PeriodicCheckpoint and is compared in the A5 ablation.
//
// A link carries one placement at a time, as a Starter hosts one job.
// The shadow hands it back to the idle pool (at most one idle link per
// machine and connection settings) once the job's JobDone or JobVacated
// is handled, and the executor leaves it open once that message is
// acknowledged; the next placement from the same station to the same
// machine then skips the dial. A link delivers
// a message only to the shadow it carries and only if the message names
// that shadow's job, so a late notice of the previous job is dropped. A
// link that dies under a job is JobLost; one that dies idle is forgotten.
//
// Checkpoints are taken only between execution slices, never while a
// system call is in flight, which realizes the paper's rule that
// "checkpointing is deferred until the shadow's reply has been received".
package ru
