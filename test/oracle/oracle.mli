(** Test-only oracles: frozen reference implementations the property
    suite holds the production code to.  Linked by the test suite and
    by the micro-benchmarks, never by the library. *)

val run_reference :
  ?observer:(('msg, 'input, 'output) Radiosim.Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Radiosim.Trace.round_record -> bool) ->
  dual:Dualgraph.Dual.t ->
  scheduler:Radiosim.Scheduler.t ->
  nodes:('msg, 'input, 'output) Radiosim.Process.node array ->
  env:('input, 'output) Radiosim.Env.t ->
  rounds:int ->
  unit ->
  int
(** The listener-centric resolver: every listener scans its full
    topology neighborhood, querying the scheduler per incident edge —
    O(n·Δ') per round.  Same observable semantics as
    {!Radiosim.Engine.run} (the property suite asserts bit-identical
    traces on random configurations); the M5b micro-benchmark is the
    baseline it sets.  Deliberately takes no event sink, faults or
    reception model: the reference semantics stay frozen. *)

(** The single-message flood over the abstract MAC layer, frozen as it
    stood before flooding moved onto {!Macapps.Serve} over a one-source
    batch (its observability hooks and tag option dropped; neither
    touched the flood).  A source relays at round 0; every other node
    relays once, on first reception; the run stops once all nodes are
    covered. *)
module Flood : sig
  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    relays : int;
    rounds_executed : int;
  }

  val run :
    params:Localcast.Params.t ->
    rng:Prng.Rng.t ->
    dual:Dualgraph.Dual.t ->
    scheduler:Radiosim.Scheduler.t ->
    source:int ->
    max_rounds:int ->
    unit ->
    result
end

(** The physical-layer Decay flood, frozen as it stood before it became
    a network of windowed {!Baseline.Strategy.relay} nodes: each covered
    node relays for [relay_epochs] Decay epochs from the round after its
    first reception (the source from round 0), with node streams split
    from [rng] in node order. *)
module Flood_decay : sig
  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    rounds_executed : int;
  }

  val run :
    rng:Prng.Rng.t ->
    dual:Dualgraph.Dual.t ->
    scheduler:Radiosim.Scheduler.t ->
    source:int ->
    relay_epochs:int ->
    max_rounds:int ->
    unit ->
    result
end

(** The record-based SplitMix64 generator and its typed draws, frozen as
    they stood before {!Prng.Rng} took over the arithmetic with an
    unboxed 8-byte state, together with the counter-mode key formulas
    each user spelled out in [Int64] arithmetic and [Macapps.Workload]'s
    private 63-bit mixer.  The property suite holds every stream,
    stream position and keyed hash of {!Prng.Rng} to these. *)
module Rng : sig
  type t

  val create : int64 -> t
  val split : t -> t
  val copy : t -> t
  val mix : int64 -> int64
  val bits64 : t -> int64
  val bool : t -> bool
  val bits : t -> int -> int
  val int : t -> int -> int
  val int_in_range : t -> min:int -> max:int -> int
  val float : t -> float -> float
  val bernoulli : t -> float -> bool
  val geometric_trial : t -> int -> bool
  val shuffle : t -> 'a array -> unit

  val scheduler_hash : seed:int -> round:int -> edge:int -> int64
  (** [Scheduler.bernoulli]'s per-edge hash of (round, edge, seed). *)

  val sparse_round_stream : seed:int -> round:int -> t
  (** [Scheduler.bernoulli_sparse]'s per-round generator. *)

  val node_rng : seed:int -> node:int -> round:int -> t
  (** [Strategy.node_rng]'s per-node stream. *)

  val reviver_rng : seed:int -> node:int -> round:int -> t
  (** [Service.reviver]'s stream for a node revived at [round]. *)

  val churn_hash : seed:int -> node:int -> int64
  (** [Faults.Plan.churn]'s per-node hash. *)

  val workload_mix : int -> int
  (** [Macapps.Workload]'s 63-bit finalizer. *)
end

(** {!Prng.Bitstring}'s seed draw and cursor takes, frozen as they stood
    before the bits were filled by {!Prng.Rng.fill_bools} and read as
    windows: one {!Prng.Rng.bool} per bit drawn, one
    {!Prng.Bitstring.take_bit} per bit consumed.  The property suite
    holds the production draw and takes to these, value, generator
    position and cursor position alike. *)
module Bitstring : sig
  val random : Prng.Rng.t -> int -> Prng.Bitstring.t
  val take_int : Prng.Bitstring.cursor -> int -> int
  val take_all_zero : Prng.Bitstring.cursor -> int -> bool
end

(** The record-fed LB(t_ack, t_prog, ε) monitor, frozen as it stood before
    the spec bookkeeping moved into the {!Obs.Audit} core: payload-keyed
    tables, liveness read from the fault plan, a crashed sender no longer
    actively broadcasting.  The property suite holds
    {!Localcast.Lb_spec}'s report to this one, field by field. *)
module Lb_spec : sig
  type monitor

  val monitor :
    ?faults:Faults.Plan.t ->
    dual:Dualgraph.Dual.t ->
    params:Localcast.Params.t ->
    unit ->
    monitor

  val observe :
    monitor ->
    ( Localcast.Messages.msg,
      Localcast.Messages.lb_input,
      Localcast.Messages.lb_output )
    Radiosim.Trace.round_record ->
    unit

  val finish : monitor -> Localcast.Lb_spec.report
end

(** The five spec parsers, frozen as they stood before they were
    rewritten on {!Grammar}, each with its own tokenizer, case rule and
    number reading.  The property suite checks that whatever one of
    these accepts, the production parser accepts with the same value. *)
module Spec : sig
  val reception : string -> (Radiosim.Reception.t, string) result

  val faults :
    seed:int -> n:int -> rounds:int -> string -> (Faults.Plan.t, string) result

  val workload : string -> (Macapps.Workload.process, string) result
  val strategy : string -> (Baseline.Strategy.t, string) result
  val policy : string -> (Macapps.Serve.policy, string) result
end

(** The dense SINR evaluation, frozen as the original listener-centric
    path: per listener, a full band scan plus an O(cols) far-field row.
    It is rebuilt from public inputs (the dual's embedding and [r], the
    parameters, {!Radiosim.Sinr.cols} and {!Radiosim.Sinr.column_of})
    with the frozen arithmetic and summation order, so it reads none
    of the sparse kernels' state.  The property suite holds
    {!Radiosim.Sinr.verdict} (and the engine's skip set) to it; the
    M12b micro-benchmark is the baseline it sets. *)
module Sinr_dense : sig
  type t

  val create :
    params:Radiosim.Reception.sinr ->
    Dualgraph.Dual.t ->
    Radiosim.Sinr.t ->
    t
  (** The oracle for the field [Radiosim.Sinr.create ~params dual]
      (the third argument), whose column map it copies.  Raises
      [Invalid_argument] if the dual carries no embedding. *)

  val load : t -> transmitters:int array -> count:int -> unit
  (** Loads a round: the first [count] entries of [transmitters], in
      strictly ascending id order, bucketed per column once. *)

  val receive : t -> jammed:bool -> listener:int -> int
  (** Same contract as {!Radiosim.Sinr.verdict}, for a listener not
      itself transmitting: the decoded id, [-1] for nothing in band,
      [-2] for a drowned candidate. *)

  val diag : t -> jammed:bool -> listener:int -> int * float * float
  (** [(best, signal, interference)] behind {!receive}: the in-band
      candidate ([-1] if none), its received power, and every other
      transmitter's power (near exact, far aggregated) plus noise plus
      jam.  The listener decodes [best] iff
      [signal >= beta · interference]. *)
end

val transmitter_counts :
  dual:Dualgraph.Dual.t ->
  scheduler:Radiosim.Scheduler.t ->
  round:int ->
  transmitting:bool array ->
  unit ->
  int array
(** For the given transmitting set, the number of topology-neighbors of
    each node that transmit in [round] (the contention each listener
    faces), asking {!Radiosim.Scheduler.active} per incident unreliable
    edge.  The property suite cross-checks the engine's collision rule
    with it. *)

(** Post-hoc analytics over recorded LBAlg traces (Lemma C.1's
    decomposition): a body round seen from one receiver is silent, a
    single transmission or a collision, and each node's committed seed
    owner per phase gives the seed groups of a neighborhood.  Pure trace
    analyses; they never perturb an execution. *)
module Lb_probe : sig
  type contention = {
    body_rounds : int;  (** body rounds examined *)
    silent : int;  (** rounds with no transmitting topology-neighbor *)
    single : int;  (** rounds with exactly one (a clean reception) *)
    collision : int;  (** rounds with two or more *)
  }

  val reception_rate : contention -> float
  (** [single / body_rounds] — the empirical p_u. *)

  val contention_profile :
    dual:Dualgraph.Dual.t ->
    scheduler:Radiosim.Scheduler.t ->
    params:Localcast.Params.t ->
    node:int ->
    ( Localcast.Messages.msg,
      Localcast.Messages.lb_input,
      Localcast.Messages.lb_output )
    Radiosim.Trace.t ->
    contention
  (** Classify every body round of the trace by the number of
      transmitting neighbors the node faces under the given link
      schedule (which must be the schedule the trace was produced
      under). *)

  val committed_owners :
    params:Localcast.Params.t ->
    n:int ->
    phase:int ->
    ( Localcast.Messages.msg,
      Localcast.Messages.lb_input,
      Localcast.Messages.lb_output )
    Radiosim.Trace.t ->
    int option array
  (** The seed owner each node committed for the given phase ([None]
      when the trace does not cover that phase's commit, e.g. a
      non-refresh phase under [seed_refresh > 1]). *)

  val groups_in_neighborhood :
    dual:Dualgraph.Dual.t -> owners:int option array -> node:int -> int
  (** Distinct committed owners across the node's closed
      G'-neighborhood — the [k <= δ] of Lemma C.1. *)
end

(** {!Localcast.Lb_alg}'s node, frozen as it stood while every node
    holding a committed seed took the participant and level bits in
    every body round, sending or not.  The property suite holds the
    production node, whose listeners skip those takes and a promoted
    sender replays them, to identical traces.  Under the oracle seed
    source a node revived mid-cycle takes the cycle's seed and walks it
    through the cycle's earlier body rounds, as the production node
    does. *)
module Lb_alg : sig
  val node :
    ?seed_source:Localcast.Lb_alg.seed_source ->
    Localcast.Params.t ->
    id:int ->
    rng:Prng.Rng.t ->
    ( Localcast.Messages.msg,
      Localcast.Messages.lb_input,
      Localcast.Messages.lb_output )
    Radiosim.Process.node

  val network :
    ?seed_source:Localcast.Lb_alg.seed_source ->
    Localcast.Params.t ->
    rng:Prng.Rng.t ->
    n:int ->
    ( Localcast.Messages.msg,
      Localcast.Messages.lb_input,
      Localcast.Messages.lb_output )
    Radiosim.Process.node
    array
end

(** Chi-square and lag-1 autocorrelation checks that turn the paper's
    independence claims (Lemmas B.17/B.18) into verdicts at the 1%
    level, as they stood in [Stats] before they moved here: their only
    user is the test suite's [hypothesis] group. *)
module Hypothesis : sig
  val chi_square_statistic : observed:int array -> expected:float array -> float
  (** Pearson's X² = Σ (O - E)² / E.  Requires same-length arrays with all
      expected counts positive. *)

  val chi_square_uniform : int array -> float
  (** X² against the uniform distribution over the array's cells. *)

  val chi_square_critical : df:int -> float
  (** The 99th-percentile critical value of the χ² distribution with [df]
      degrees of freedom (Wilson–Hilferty approximation; exact to ~1% for
      df >= 3).  A statistic below this is consistent with the null at the
      1% level. *)

  val uniform_ok : ?df:int -> int array -> bool
  (** [uniform_ok counts]: is the cell distribution consistent with uniform
      at the 1% level?  [df] defaults to [length - 1]. *)

  val serial_correlation : float array -> float
  (** Lag-1 autocorrelation coefficient; near 0 for independent samples.
      Returns 0 for fewer than 3 samples or constant input. *)
end
