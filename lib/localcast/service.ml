module Dual = Dualgraph.Dual
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace

type outcome = {
  report : Lb_spec.report;
  env_log : Lb_env.entry list;
  rounds_executed : int;
  obs_snapshots : Obs.Metrics.snapshot list;
}

let default_scheduler ~seed = Sch.bernoulli ~seed ~p:0.5

let finish ?glue ~monitor ~envt ~rounds_executed () =
  {
    report = Lb_spec.finish monitor;
    env_log = Lb_env.log envt;
    rounds_executed;
    obs_snapshots =
      (match glue with Some g -> Lb_obs.snapshots g | None -> []);
  }

(* The optional observability wiring shared by [run] and [one_shot]: a
   protocol-event translator when a sink is present (metrics ride on
   it), composed after the spec monitor so both see each record. *)
let obs_glue ?sink ?metrics ~dual ~params () =
  match sink with
  | None -> None
  | Some sink -> Some (Lb_obs.create ?metrics ~sink ~dual ~params ())

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
  let monitor = Lb_spec.monitor ?faults ~dual ~params ~env:envt () in
  let glue = obs_glue ?sink ?metrics ~dual ~params () in
  let observe record =
    Lb_spec.observe monitor record;
    (match glue with Some g -> Lb_obs.observer g record | None -> ());
    match observer with Some f -> f record | None -> ()
  in
  let revive = revive_opt ?seed_source ~params ~seed faults in
  let rounds_executed =
    Engine.run ~observer:observe ?sink ?metrics ?faults ?revive ?reception
      ~dual ~scheduler ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(phases * params.Params.phase_len)
      ()
  in
  finish ?glue ~monitor ~envt ~rounds_executed ()

let one_shot ?scheduler ?sink ?metrics ?faults ?reception ~dual ~params
    ~sender ~seed () =
  let scheduler =
    match scheduler with Some s -> s | None -> default_scheduler ~seed
  in
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let nodes = Lb_alg.network params ~rng ~n in
  let envt = Lb_env.one_shot ~n ~bcasts:[ (sender, 0) ] in
  let monitor = Lb_spec.monitor ?faults ~dual ~params ~env:envt () in
  let glue = obs_glue ?sink ?metrics ~dual ~params () in
  let observe record =
    Lb_spec.observe monitor record;
    match glue with Some g -> Lb_obs.observer g record | None -> ()
  in
  let revive = revive_opt ~params ~seed faults in
  let rounds_executed =
    Engine.run ~observer:observe ?sink ?metrics ?faults ?revive ?reception
      ~dual ~scheduler ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(Params.t_ack_rounds params)
      ()
  in
  let outcome = finish ?glue ~monitor ~envt ~rounds_executed () in
  (* Completion is survivor-relative under a fault plan: only reliable
     neighbors alive for the whole run owe (and are owed) a reception. *)
  let counts v =
    match faults with
    | None -> true
    | Some plan ->
        Faults.Plan.alive_through plan ~node:v ~from:0
          ~until:(rounds_executed - 1)
  in
  let completion =
    match outcome.env_log with
    | [ entry ] ->
        let last = ref 0 and all = ref true in
        Dual.iter_reliable_neighbors dual sender (fun v ->
            if counts v then begin
              let first_recv =
                List.filter_map
                  (fun (u, round) -> if u = v then Some round else None)
                  entry.Lb_env.recv_rounds
                |> List.fold_left min max_int
              in
              if first_recv = max_int then all := false
              else if first_recv > !last then last := first_recv
            end);
        if !all then Some !last else None
    | _ -> None
  in
  (outcome, completion)

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
