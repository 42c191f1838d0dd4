let run ?observer ?stop ?sink ?metrics ?faults ?revive ?reception ~dual
    ~scheduler ~nodes ~env ~rounds () =
  Round.run ~who:"Engine.run" ~tiles:1 ~source:(Round.Oblivious scheduler)
    ?observer ?stop ?sink ?metrics ?faults ?revive ?reception ~dual ~nodes ~env
    ~rounds ()

let run_adaptive ?observer ?stop ?sink ?metrics ?faults ?revive ?reception
    ~dual ~adversary ~nodes ~env ~rounds () =
  (* The adaptive adversary's whole power is choosing which unreliable
     edges fire after seeing the transmitter set; SINR ignores those
     edges entirely, so combining the two would silently run a plain
     SINR simulation while claiming adversarial semantics. *)
  (match reception with
  | None | Some Reception.Dual_graph -> ()
  | Some (Reception.Sinr _) ->
      invalid_arg
        "Engine.run_adaptive: the SINR reception model does not consult the \
         link scheduler, so an adaptive adversary has nothing to rule on; \
         use Engine.run with ~reception, or the dual-graph model");
  Round.run ~who:"Engine.run_adaptive" ~tiles:1
    ~source:(Round.Adaptive adversary) ?observer ?stop ?sink ?metrics ?faults
    ?revive ~dual ~nodes ~env ~rounds ()
