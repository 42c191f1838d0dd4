(** Harness shared by the baseline experiments.

    {!first_reception} runs a network of always-active senders plus
    passive listeners and reports how long a designated receiver waits
    for its first clean data reception — the quantity the paper's
    progress bound controls.  {!Localcast.Coverage} tallies every
    node's first reception of one broadcast (the E18, E20 and E25 relay
    runs). *)

val first_reception :
  dual:Dualgraph.Dual.t ->
  scheduler:Radiosim.Scheduler.t ->
  nodes:(Localcast.Messages.msg, unit, unit) Radiosim.Process.node array ->
  receiver:int ->
  max_rounds:int ->
  int option
(** The 0-based round of the receiver's first clean data reception, or
    [None] if it starves for [max_rounds] rounds. *)

val receiver : unit -> (Localcast.Messages.msg, unit, unit) Radiosim.Process.node
(** A silent listener. *)
