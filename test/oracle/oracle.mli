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
