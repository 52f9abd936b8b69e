// Package sched provides the LPT (longest-processing-time-first)
// worker pool simulation campaigns run on. Pool is a long-lived worker
// pool with online, tiered LPT dispatch — ltp.Engine submits every
// interactive run, sweep cell and figure cell (internal/experiment
// runs the paper's figures as Engine sweeps) through one Pool so a
// single parallelism cap governs the whole process. Interactive
// submissions (TierInteractive) dispatch ahead of queued campaign
// cells (TierCampaign); every task carries a context, and a task
// cancelled while queued drains without simulating.
//
// LPT list scheduling starts the longest-estimated jobs first so the
// worker pool stays saturated at the tail of a campaign instead of
// idling behind one straggler; with reasonable estimates it is within
// 4/3 of the optimal makespan.
package sched
