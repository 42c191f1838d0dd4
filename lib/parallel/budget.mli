(** A process-wide domain budget shared by every parallel subsystem.

    OCaml domains are heavyweight (one system thread plus GC
    participation each), and oversubscribing them degrades everything:
    a tiled engine run nested inside a [Stats.Experiment.trials_par]
    sweep must not multiply the two domain counts.  This module is the
    single ledger both consult: spawners register the extra domains
    they hold, and {!suggested_extra} tells a new spawner how many more
    the machine can absorb.

    The budget only shapes {e defaults}.  An explicit [~domains] or
    [~tiles] argument is always honored verbatim, so correctness tests
    can force parallel execution on any machine — including a
    single-core CI runner, where the suggested extra is 0. *)

val capacity : unit -> int
(** Total domains the machine is expected to run well, including the
    main domain: [Domain.recommended_domain_count ()], at least 1. *)

val in_flight : unit -> int
(** Extra domains currently registered as spawned and not yet joined. *)

val note_spawned : int -> unit
(** Register [k] freshly spawned extra domains against the budget. *)

val note_joined : int -> unit
(** Release [k] previously registered domains back to the budget. *)

val suggested_extra : unit -> int
(** [max 0 (capacity () - 1 - in_flight ())] — how many extra domains a
    new parallel section should spawn by default so the process stays
    within capacity.  Zero whenever the budget is exhausted (or the
    machine is single-core). *)
