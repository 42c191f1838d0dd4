(** The randomness substrate: SplitMix64 generators and typed draws.

    This module owns the SplitMix64 arithmetic (Steele, Lea and Flood,
    "Fast splittable pseudorandom number generators", OOPSLA 2014): the
    state is 8 raw bytes, and the step and both finalizers are inlined
    into every draw, so a draw returning an [int] or a [bool] allocates
    nothing, even across an [-opaque] module boundary.  {!Splitmix} only
    re-exports the generator operations under their historical names.

    Every simulated entity (node, scheduler, environment, workload
    generator) holds its own [Rng.t], obtained by [split]ting a root
    generator.  This keeps executions reproducible and lets tests replay a
    single node's coin flips in isolation.  Counter-mode users, whose
    draws must be a pure function of a key, hash the key with the
    {{!keys}keyed entry points} instead. *)

type t

val create : int64 -> t
(** Fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** Fresh generator from an [int] seed. *)

val split : t -> t
(** Derive an independent generator (advances the parent). *)

val copy : t -> t
(** Duplicate the state (both produce the same stream afterwards). *)

val bits64 : t -> int64
(** 64 fresh pseudo-random bits. *)

val bool : t -> bool
(** A fair coin. *)

val bits : t -> int -> int
(** [bits t k] is a uniform integer in [\[0, 2^k)], for [0 <= k <= 62]
    (the full non-negative range of a 64-bit-platform OCaml int). *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]; any positive
    OCaml int (up to [max_int]) is accepted.  Uses rejection sampling,
    so the distribution is exactly uniform. *)

val int_in_range : t -> min:int -> max:int -> int
(** Uniform in the inclusive range [\[min, max\]].  Requires [min <= max]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val bernoulli_pow2 : t -> int -> bool
(** [bernoulli_pow2 t k] is [true] with probability [2^-k], for
    [0 <= k <= 62], without a float: at [k = 0] it is [true] and draws
    nothing; otherwise it takes the top 53 bits [v] of one draw and
    returns [v < 2^(53-k)] ([v = 0] for [k > 53]).  For [k <= 61] this
    is [bernoulli t (2^-k)] output for output, draw for draw. *)

val geometric_trial : t -> int -> bool
(** [geometric_trial t b] flips [b] fair coins and returns [true] iff all
    landed zero — i.e. [true] with probability [2^-b].  This is the exact
    primitive LBAlg uses for its broadcast decision (step 3 of the body
    round), implemented with the same bit-consumption semantics. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val mix : int64 -> int64
(** The SplitMix64 finalizer, a bijection on 64-bit words. *)

(** {1:keys Counter-mode keys}

    Hashes of integer keys, for draws that must be a pure function of
    their key rather than of a stream position.  They take and return
    ints (or a fresh generator), never an [int64] or a [float]: a caller
    behind an [-opaque] boundary hashes without allocating.  A [_hash]
    is the top 53 bits of the finalized key, so
    [float_of_int h /. 2^53] is uniform in [\[0, 1)]; a [_stream] is the
    generator whose state is the finalized key. *)

val round_hash : round:int -> salt:int -> int
(** The (round, salt) key [round * 0x100000001B3 + salt] (64-bit
    wrap-around), finalized: the link scheduler's per-edge hash. *)

val round_stream : round:int -> salt:int -> t
(** The generator seeded with the finalized (round, salt) key. *)

val node_hash : seed:int -> node:int -> round:int -> int
(** The (seed, node, round) key
    [seed * 0x9E3779B97F4A7C15 + (node + 1) * 0xC2B2AE3D27D4EB4F
    + round * 0x165667B19E3779F9] (64-bit wrap-around; [node + 1] is
    native), finalized. *)

val node_stream : seed:int -> node:int -> round:int -> t
(** The generator seeded with the finalized (seed, node, round) key:
    per-node streams that do not depend on iteration order. *)

val mix63 : int -> int
(** A 63-bit SplitMix-style finalizer on native ints; the result is
    non-negative.  For keys hashed on a path that must stay in ints. *)
