(** Trial running for the experiment harness.

    Experiments repeat a randomized measurement across independently
    seeded trials and aggregate.  The runner derives one deterministic
    sub-seed per trial from a master seed (an affine combination of seed
    and trial index pushed through the SplitMix64 finalizer, so nearby
    master seeds cannot produce overlapping trial streams), and every
    table in EXPERIMENTS.md is exactly reproducible — including under
    {!trials_par}, whose results are bit-identical to {!trials} at any
    domain count. *)

val trials : seed:int -> n:int -> (trial:int -> seed:int -> 'a) -> 'a list
(** [trials ~seed ~n f] runs [f] for trials [0 .. n-1], each with its own
    derived seed, and returns the results in trial order. *)

val trials_par :
  ?domains:int -> seed:int -> n:int -> (trial:int -> seed:int -> 'a) -> 'a list
(** [trials_par ~domains ~seed ~n f] is observably identical to
    [trials ~seed ~n f] — same derived seed per trial, results restored
    to trial order — but spreads the trials over [domains] worker
    domains (default [1], which runs sequentially without spawning)
    through a chunked work-stealing loop: workers claim the next chunk
    of trial indices from a shared atomic cursor, so uneven per-trial
    workloads rebalance instead of stranding a static block on one
    domain.  [f] therefore runs concurrently with itself and must not
    share mutable state across trials; make each trial return its
    measurements and aggregate over the result list instead.  Raises
    [Invalid_argument] if [domains < 1].

    If a trial raises, the first such exception (in completion order)
    is re-raised here on the calling domain with its original
    backtrace; the remaining trials are abandoned as soon as the
    workers observe the failure, and every worker domain is still
    joined before the re-raise — no chunk cursor deadlock, no
    swallowed exception.  The spawned worker domains are registered
    with {!Parallel.Budget} for their lifetime, so nested parallel
    sections (e.g. a tiled engine run inside a trial) size their
    defaults against the remaining capacity. *)

val count : ('a -> bool) -> 'a list -> int

val time : (unit -> 'a) -> 'a * float
(** Result plus elapsed seconds on the monotonic clock
    (CLOCK_MONOTONIC) — immune to the backwards steps NTP inflicts on
    time-of-day clocks, so the reading is always >= 0. *)
