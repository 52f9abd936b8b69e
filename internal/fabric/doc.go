// Package fabric is the sharded campaign fabric: a coordinator that
// fronts a fleet of ltpserved workers and serves the single-node
// client API (/v1/run, /v1/sweep, /v1/jobs, cancellation,
// since_snapshot) unchanged, because it IS the single-node service —
// a server.Server over an ltp.Engine whose cache misses run on the
// fleet instead of a local pool.
//
// The Coordinator is that engine's ltp.Executor. Cells are
// content-addressed (RunSpec.Hash) and location-independent, which is
// the whole trick: each batch the engine hands over — one batch group
// sharing a functional stream and warm region, or a lone cell — is cut
// into chunks no wider than its ring home's parallelism and placed on
// a consistent-hash ring with virtual nodes by its group key (a lone
// cell by its run hash), so repeated campaigns hit that worker's cache
// and each chunk shares one warm pass there; a fleet-level
// LPT heuristic spills batches off overloaded homes; and lanes
// stranded by a dead or hung worker are re-dispatched to the surviving
// ring with exponential backoff. Single-flight across jobs, the job
// registry and tenant quotas, triage and the result store (a restarted
// coordinator serves stored cells without the fleet) are the engine's
// and the server's own.
//
// See DESIGN.md §13 for the failure model and API.md for the
// coordinator's endpoints (worker registration, fleet stats).
package fabric
