module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph

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

let transmitter_counts ~dual ~scheduler ~round ~transmitting () =
  let n = Dual.n dual in
  if Array.length transmitting <> n then
    invalid_arg "Engine.transmitter_counts: size mismatch";
  let inc_off, inc_nbr, inc_edge = Dual.unreliable_incidence_csr dual in
  let g_off = Graph.csr_offsets (Dual.g dual) in
  let g_adj = Graph.csr_neighbors (Dual.g dual) in
  let counts = Array.make n 0 in
  for v = 0 to n - 1 do
    if transmitting.(v) then begin
      for j = g_off.(v) to g_off.(v + 1) - 1 do
        let u = Array.unsafe_get g_adj j in
        counts.(u) <- counts.(u) + 1
      done;
      for j = inc_off.(v) to inc_off.(v + 1) - 1 do
        if Scheduler.active scheduler ~round ~edge:inc_edge.(j) then begin
          let u = Array.unsafe_get inc_nbr j in
          counts.(u) <- counts.(u) + 1
        end
      done
    end
  done;
  counts
