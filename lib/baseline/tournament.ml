module Dual = Dualgraph.Dual
module M = Localcast.Messages
module Params = Localcast.Params
module Plan = Faults.Plan

type adversary =
  | Oblivious of (seed:int -> Radiosim.Scheduler.t)
  | Adaptive_jam

type arm = Strategy of Strategy.t | Lbalg

let arm_label = function
  | Strategy s -> Strategy.name s
  | Lbalg -> "lbalg"

let arms ~dual =
  List.map
    (fun s -> Strategy s)
    (Strategy.zoo ~delta':(Dual.delta' dual) ~n:(Dual.n dual))
  @ [ Lbalg ]

type arena = {
  dual : Dualgraph.Dual.t;
  params : Localcast.Params.t;
  sender : int;
  horizon : int;
  budget : int;
  adversary : adversary;
  plan_of : (seed:int -> Faults.Plan.t) option;
}

let default_adversary =
  Oblivious (fun ~seed -> Radiosim.Scheduler.bernoulli ~seed ~p:0.5)

let arena ?(sender = 0) ?(adversary = default_adversary) ?plan_of ~dual () =
  if sender < 0 || sender >= Dual.n dual then
    invalid_arg "Tournament.arena: sender out of range";
  let params = Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
  {
    dual;
    params;
    sender;
    horizon = Params.t_ack_rounds params;
    budget = params.Params.phase_len;
    adversary;
    plan_of;
  }

let supports arena arm =
  match (arena.adversary, arm) with
  | Adaptive_jam, Lbalg -> false
  | (Oblivious _ | Adaptive_jam), (Strategy _ | Lbalg) -> true

type sample = { coverage : float; latency : float; cost : float }

(* Count transmission decisions off the structural event stream rather
   than the ring buffer, so sink capacity can never clip the tally. *)
let transmit_counter sink =
  let count = ref 0 in
  Obs.Sink.on_event sink (function
    | Obs.Event.Transmit _ -> incr count
    | _ -> ());
  count

let strategy_trial arena spec ~seed =
  let { dual; sender; horizon; budget; _ } = arena in
  let n = Dual.n dual in
  let message = M.payload ~src:sender ~uid:0 () in
  let nodes =
    Array.init n (fun v ->
        Strategy.relay spec
          ?initial:(if v = sender then Some message else None)
          ~budget
          ~rng:(Strategy.node_rng ~seed ~node:v ())
          ~node:v ())
  in
  let cov = Localcast.Coverage.create ~n ~source:sender in
  let observer = Localcast.Coverage.observe cov in
  let sink = Obs.Sink.create () in
  let cost = transmit_counter sink in
  let plan = Option.map (fun f -> f ~seed) arena.plan_of in
  (* A revived relay has lost the message: fresh state, fresh stream
     keyed by the revival round, no initial payload. *)
  let revive ~node ~round =
    Strategy.relay spec ~budget
      ~rng:(Strategy.node_rng ~round ~seed ~node ())
      ~node ()
  in
  let env = Radiosim.Env.null ~name:"e25" () in
  let (_ : int) =
    match arena.adversary with
    | Oblivious f ->
        Radiosim.Engine.run ~observer ~sink ?faults:plan ~revive ~dual
          ~scheduler:(f ~seed) ~nodes ~env ~rounds:horizon ()
    | Adaptive_jam ->
        Radiosim.Engine.run_adaptive ~observer ~sink ?faults:plan ~revive
          ~dual
          ~adversary:(Radiosim.Adaptive.jam dual)
          ~nodes ~env ~rounds:horizon ()
  in
  (cov.Localcast.Coverage.first, !cost, plan)

let lbalg_trial arena ~seed =
  let { dual; params; sender; _ } = arena in
  let sink = Obs.Sink.create () in
  let cost = transmit_counter sink in
  let plan = Option.map (fun f -> f ~seed) arena.plan_of in
  let scheduler =
    match arena.adversary with
    | Oblivious f -> Some (f ~seed)
    | Adaptive_jam -> None
  in
  let _, cov, _ =
    Localcast.Service.one_shot ?scheduler ~sink ?faults:plan ~dual ~params
      ~sender ~seed ()
  in
  (cov.Localcast.Coverage.first, !cost, plan)

let sample_of arena ~plan ~cost first =
  let { dual; sender; horizon; _ } = arena in
  let eligible = ref 0 and covered = ref 0 in
  let lat_sum = ref 0.0 in
  Dual.iter_reliable_neighbors dual sender (fun v ->
      let ok =
        match plan with
        | None -> true
        | Some p -> Plan.alive p ~node:v ~round:(horizon - 1)
      in
      if ok then begin
        incr eligible;
        if first.(v) < max_int then begin
          incr covered;
          lat_sum := !lat_sum +. float_of_int first.(v)
        end
        else lat_sum := !lat_sum +. float_of_int horizon
      end);
  if !eligible = 0 then None
  else
    Some
      {
        coverage = float_of_int !covered /. float_of_int !eligible;
        latency = !lat_sum /. float_of_int !eligible;
        cost = float_of_int cost;
      }

let trial arena arm ~seed =
  if not (supports arena arm) then None
  else
    let first, cost, plan =
      match arm with
      | Strategy spec -> strategy_trial arena spec ~seed
      | Lbalg -> lbalg_trial arena ~seed
    in
    sample_of arena ~plan ~cost first
