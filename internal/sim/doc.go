// Package sim defines the execution-backend abstraction of the LTP
// reproduction: a Backend turns one resolved simulation Spec into a
// Stats snapshot, and declares its Fidelity so callers can trade
// accuracy for speed. The cycle-accurate pipeline (internal/pipeline
// driven by CycleBackend in this package) is the reference
// implementation; internal/model provides a fast interval-style
// analytical estimate behind the same interface. Every registered
// backend is a BatchBackend — it evaluates a group of Specs sharing one
// µop stream, and a single run is a batch of one. One functional pass
// warms each warm group of a batch (startBatch); every lane, and every
// interval of a sampled lane, takes its start state from a snapshot of
// its group (snapshot.take) and fans out through the Spec's Executor
// (FanOut). The public ltp
// package resolves workloads, traces and configuration defaults into
// Specs and dispatches on the registry here, so every layer above —
// the engine, the sweep machinery, the campaign service and the CLIs —
// selects fidelity with a single string.
package sim
