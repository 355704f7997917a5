// Package azureobs reproduces "Early observations on the performance of
// Windows Azure" (Hill, Li, Mao, Ruiz-Alvarez, Humphrey — HPDC 2010) as a
// deterministic discrete-event simulation of the 2010-era Windows Azure
// platform, together with the paper's complete measurement harness.
//
// The library lives under internal/: the simulation kernel (sim), the
// datacenter and fabric controller (fabric), the flow-level network
// (netsim), the three storage services (storage/...), the client SDK
// (azure), the measurement framework (core), the ModisAzure application
// (modis), and the HTTP facade over the 2009 Azure REST surface (wire).
// Executables live under cmd/, runnable examples under examples/, and
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation.
//
// # Continuation API naming contract
//
// Every storage op is written once, as a flat state machine on a
// sim.Actor, and offered in two forms. The flat form runs on a
// caller-embedded actor and follows one naming convention throughout the
// tree:
//
//   - A method suffixed Flat (blobsvc Session.GetFlat, Client.PutBlobFlat,
//     netsim TransferFlat, Signal.WaitFlat) starts the operation on the
//     actor and delivers results through a caller-supplied callback.
//   - A reusable request struct named <Op>Flat (tablesvc GetFlat/WriteFlat/
//     QueryFlat, queuesvc ReqFlat, reqpath CtxFlat) is armed with a Begin*
//     method; the struct embeds all per-request state so steady-state
//     requests allocate nothing.
//
// The blocking form takes the calling *sim.Proc and returns results
// directly: it drives the same machine on the process's own goroutine
// (sim.Proc.Drive). azure.Retry is the retry loop in the same shape, with
// RetryPolicy.Do its blocking form.
//
// Flat steps obey the actor's arm-or-finish discipline: every step either
// arms exactly one continuation (a Sleep, a WaitFlat, a nested *Flat call)
// or finishes the actor, and the kernel panics on a step that does
// neither. Both drivers schedule exactly one event per wake, so a
// blocking call and its flat form are trace-identical by construction —
// pinned by the per-service golden traces and equivalence tests and by the
// scale ladder's flat-versus-goroutine trace check
// (internal/azure/scale_test.go).
package azureobs
