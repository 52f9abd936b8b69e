// Package server implements the campaign service's HTTP/JSON surface:
// request validation, the campaign-job registry with backpressure and
// cancellation, and NDJSON cell-result streaming. It is the layer
// between cmd/ltpserved (the binary: flags, listener, graceful
// shutdown) and ltp.Engine (the execution layer: one tiered LPT worker
// pool plus the content-addressed result cache in internal/cache).
//
// Endpoints (API.md documents schemas and curl examples):
//
//	GET  /healthz        liveness
//	GET  /v1/workloads   kernel and scenario-family registries
//	GET  /v1/stats       cache counters, pool occupancy, job counts
//	POST /v1/run         one simulation, synchronous, cached
//	POST /v1/sweep       a sweep campaign: async job by default,
//	                     ?wait=1 synchronous, ?stream=1 NDJSON cells
//	GET  /v1/jobs        list campaign jobs
//	GET  /v1/jobs/{id}   one campaign job's status/progress/result
//	DELETE /v1/jobs/{id} cancel a campaign (idempotent)
//	POST /v1/cells       a fabric coordinator's batch (internal/fabric)
//
// Validation is strict: unknown JSON fields, unknown workload,
// scenario or warm-mode names, out-of-range scales, and budgets above
// the configured Limits are all 400s before any simulation starts.
// Backpressure is a 429 once MaxActiveJobs campaigns are in flight
// (or MaxTenantJobs of one X-LTP-Tenant's), carrying a Retry-After estimate (queue depth × mean cell latency)
// and the campaign hash so clients can poll a running duplicate;
// within an admitted campaign the engine's bounded worker pool is the
// real throttle (DESIGN.md §8; §9 covers cancellation propagation).
package server
