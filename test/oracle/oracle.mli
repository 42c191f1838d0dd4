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
