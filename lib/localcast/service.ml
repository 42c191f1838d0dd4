module Dual = Dualgraph.Dual
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace

type outcome = {
  report : Lb_spec.report;
  rounds_executed : int;
  obs_snapshots : Obs.Metrics.snapshot list;
}

let default_scheduler ~seed = Sch.bernoulli ~seed ~p:0.5

let finish ~monitor ~obs ~rounds_executed =
  {
    report = Lb_spec.finish monitor;
    rounds_executed;
    obs_snapshots = (match obs with Some o -> Lb_obs.snapshots o | None -> []);
  }

(* A restarted node re-enters with fresh SeedAlg state: a brand-new
   LBAlg process whose generator is derived from (seed, node, round) via
   SplitMix — a pure function of the run's identity, so faulted runs stay
   bit-identical at any trial-parallelism split. *)
let reviver ?seed_source ~params ~seed () ~node ~round =
  let rng = Prng.Rng.node_stream ~seed ~node ~round:(round + 1) in
  Lb_alg.node ?seed_source params ~id:node ~rng

let revive_opt ?seed_source ~params ~seed faults =
  match faults with
  | None -> None
  | Some _ -> Some (reviver ?seed_source ~params ~seed ())

let run ?scheduler ?seed_source ?observer ?sink ?metrics ?faults ?reception
    ~dual ~params ~senders ~phases ~seed () =
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ~seed
  in
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let nodes = Lb_alg.network ?seed_source params ~rng ~n in
  let envt = Lb_env.saturate ~n ~senders () in
  let monitor, obs, observer =
    Lb_obs.wire ~faults ~sink ~metrics ~observer ~dual ~params
  in
  let revive = revive_opt ?seed_source ~params ~seed faults in
  let rounds_executed =
    Engine.run ~observer ?sink ?metrics ?faults ?revive ?reception ~dual
      ~scheduler ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(phases * params.Params.phase_len)
      ()
  in
  finish ~monitor ~obs ~rounds_executed

let one_shot ?scheduler ?sink ?metrics ?faults ?reception ~dual ~params
    ~sender ~seed () =
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ~seed
  in
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let nodes = Lb_alg.network params ~rng ~n in
  let envt = Lb_env.one_shot ~n ~bcasts:[ (sender, 0) ] in
  let cov = Coverage.create ~n ~source:sender in
  let monitor, obs, observer =
    Lb_obs.wire ~faults ~sink ~metrics ~observer:(Some (Coverage.observe cov))
      ~dual ~params
  in
  let revive = revive_opt ~params ~seed faults in
  let rounds_executed =
    Engine.run ~observer ?sink ?metrics ?faults ?revive ?reception ~dual
      ~scheduler ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(Params.t_ack_rounds params)
      ()
  in
  (* Completion is survivor-relative under a fault plan: only reliable
     neighbors alive for the whole run owe (and are owed) a reception.
     A sender never alive has no bcast to complete. *)
  let counts v =
    match faults with
    | None -> true
    | Some plan ->
        Faults.Plan.alive_through plan ~node:v ~from:0
          ~until:(rounds_executed - 1)
  in
  let completion =
    if Lb_env.bcasts envt ~node:sender = 0 then None
    else begin
      let last = ref 0 and all = ref true in
      Dual.iter_reliable_neighbors dual sender (fun v ->
          if counts v then
            let first = cov.Coverage.first.(v) in
            if first = max_int then all := false
            else if first > !last then last := first);
      if !all then Some !last else None
    end
  in
  (finish ~monitor ~obs ~rounds_executed, cov, completion)

let first_reception ?scheduler ?seed_source ?sink ?faults ?reception ~dual
    ~params ~receiver ~max_rounds ~seed () =
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ~seed
  in
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let nodes = Lb_alg.network ?seed_source params ~rng ~n in
  let senders = List.filter (fun v -> v <> receiver) (List.init n Fun.id) in
  let envt = Lb_env.saturate ~n ~senders () in
  let result = ref None in
  let stop record =
    match record.Trace.delivered.(receiver) with
    | Some (Messages.Data _) ->
        if !result = None then result := Some record.Trace.round;
        true
    | _ -> false
  in
  let revive = revive_opt ?seed_source ~params ~seed faults in
  let (_ : int) =
    Engine.run ~stop ?sink ?faults ?revive ?reception ~dual ~scheduler ~nodes
      ~env:(Lb_env.env envt) ~rounds:max_rounds ()
  in
  !result
