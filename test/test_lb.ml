(* Tests for the local broadcast layer: LB parameter derivation, the
   LBAlg process (phase structure, ack timing, recv semantics), the LB
   environments, and the LB(t_ack, t_prog, ε) spec monitor. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Params = Localcast.Params
module Lb_alg = Localcast.Lb_alg
module Lb_env = Localcast.Lb_env
module Lb_spec = Localcast.Lb_spec
module Rng = Prng.Rng

let small_params ?(tack_phases = 2) ?(seed_refresh = 1) ?(eps1 = 0.2) dual =
  Params.of_dual ~tack_phases ~seed_refresh ~eps1 dual

(* Run LBAlg with a given environment; return (trace, env, report). *)
let run_lb ?(scheduler = Sch.reliable_only) ?(rng_seed = 7) ~params ~envt ~rounds dual =
  let n = Dual.n dual in
  let rng = Rng.of_int rng_seed in
  let nodes = Lb_alg.network params ~rng ~n in
  let trace, obs = Trace.recorder () in
  let monitor = Lb_spec.monitor ~dual ~params ~env:envt () in
  let observer record =
    obs record;
    Lb_spec.observe monitor record
  in
  let (_ : int) =
    Engine.run ~observer ~dual ~scheduler ~nodes ~env:(Lb_env.env envt) ~rounds ()
  in
  (trace, Lb_spec.finish monitor)

(* --- Params --- *)

let test_params_validation () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument
    ("Params.make: " ^ msg)) f in
  raises "degree bounds must be >= 1" (fun () ->
      ignore (Params.make ~delta:0 ~delta':1 ~r:1.0 ~eps1:0.1 ()));
  raises "delta' must be >= delta" (fun () ->
      ignore (Params.make ~delta:4 ~delta':2 ~r:1.0 ~eps1:0.1 ()));
  raises "r must be >= 1" (fun () ->
      ignore (Params.make ~delta:2 ~delta':2 ~r:0.5 ~eps1:0.1 ()));
  raises "seed_refresh must be >= 1" (fun () ->
      ignore (Params.make ~seed_refresh:0 ~delta:2 ~delta':2 ~r:1.0 ~eps1:0.1 ()));
  raises "tack_phases must be >= 1" (fun () ->
      ignore (Params.make ~tack_phases:0 ~delta:2 ~delta':2 ~r:1.0 ~eps1:0.1 ()))

let test_params_structure () =
  let p = Params.make ~delta:8 ~delta':12 ~r:1.5 ~eps1:0.1 () in
  checki "phase_len = ts + tprog" p.Params.phase_len (p.Params.ts + p.Params.tprog);
  checki "t_prog" p.Params.phase_len (Params.t_prog_rounds p);
  checki "t_ack" ((p.Params.tack_phases + 1) * p.Params.phase_len)
    (Params.t_ack_rounds p);
  checki "eps2 is eps1/2" 0 (compare p.Params.eps2 0.05);
  checki "log_delta of 8" 3 p.Params.log_delta;
  checkb "kappa covers body bits" true
    (p.Params.seed.Params.kappa
    = p.Params.tprog
      * (p.Params.participant_bits + (p.Params.level_draws * p.Params.level_bits)))

let test_params_kappa_refresh () =
  let base = Params.make ~delta:8 ~delta':8 ~r:1.0 ~eps1:0.1 () in
  let doubled = Params.make ~seed_refresh:2 ~delta:8 ~delta':8 ~r:1.0 ~eps1:0.1 () in
  let bits =
    base.Params.participant_bits + (base.Params.level_draws * base.Params.level_bits)
  in
  checki "refresh=2 kappa"
    ((base.Params.tprog + (base.Params.ts + base.Params.tprog)) * bits)
    doubled.Params.seed.Params.kappa

let test_params_level_bits () =
  let p1 = Params.make ~delta:2 ~delta':2 ~r:1.0 ~eps1:0.1 () in
  checki "delta<=2 has no level bits" 0 p1.Params.level_bits;
  checki "delta<=2 needs one (vacuous) draw" 1 p1.Params.level_draws;
  let p2 = Params.make ~delta:16 ~delta':16 ~r:1.0 ~eps1:0.1 () in
  checki "delta=16: logΔ=4, 2 level bits" 2 p2.Params.level_bits;
  checki "delta=16: 2^2 mod 4 = 0, single draw" 1 p2.Params.level_draws;
  (* logΔ=3 does not divide 2^2: the level pick needs its rejection
     budget to stay uniform. *)
  let p3 = Params.make ~delta:8 ~delta':8 ~r:1.0 ~eps1:0.1 () in
  checki "delta=8: logΔ=3, 2 level bits" 2 p3.Params.level_bits;
  checki "delta=8: rejection budget" 4 p3.Params.level_draws

let test_params_monotonicity () =
  let tprog ~delta ~eps1 =
    (Params.make ~delta ~delta':delta ~r:1.0 ~eps1 ()).Params.tprog
  in
  checkb "tprog grows with delta" true (tprog ~delta:64 ~eps1:0.1 > tprog ~delta:4 ~eps1:0.1);
  checkb "tprog grows with 1/eps" true (tprog ~delta:8 ~eps1:0.01 > tprog ~delta:8 ~eps1:0.2);
  let tack ~delta =
    (Params.make ~delta ~delta':delta ~r:1.0 ~eps1:0.1 ()).Params.tack_phases
  in
  checkb "tack grows with delta" true (tack ~delta:64 > tack ~delta:4)

let test_params_of_dual () =
  let dual = Geo.clique 8 in
  let p = Params.of_dual ~eps1:0.1 dual in
  checki "delta from dual" 8 p.Params.delta;
  checki "delta' from dual" 8 p.Params.delta'

let test_params_calibration_overrides () =
  (* Every leading constant is a live parameter: doubling c_tprog doubles
     Tprog; doubling c_delta doubles the spec bound. *)
  let base = Params.default_calibration in
  let with_cal calibration =
    Params.make ~calibration ~delta:8 ~delta':8 ~r:1.0 ~eps1:0.1 ()
  in
  let p0 = with_cal base in
  let p1 = with_cal { base with Params.c_tprog = 2.0 *. base.Params.c_tprog } in
  checkb "c_tprog scales Tprog" true
    (abs ((2 * p0.Params.tprog) - p1.Params.tprog) <= 2);
  let p2 = with_cal { base with Params.c_delta = 2.0 *. base.Params.c_delta } in
  checkb "c_delta scales the bound" true
    (abs ((2 * p0.Params.delta_bound) - p2.Params.delta_bound) <= 2);
  let p3 =
    with_cal { base with Params.c_seed_phase = 2.0 *. base.Params.c_seed_phase }
  in
  checkb "c_seed_phase scales Ts" true (p3.Params.ts > p0.Params.ts)

let test_params_pp () =
  let p = Params.make ~delta:8 ~delta':8 ~r:1.0 ~eps1:0.1 () in
  checkb "pp renders" true (String.length (Format.asprintf "%a" Params.pp p) > 0)

(* --- phase helpers --- *)

let test_phase_helpers () =
  let dual = Geo.pair () in
  let p = small_params dual in
  checki "round 0 in phase 0" 0 (Lb_alg.phase_of_round p 0);
  checki "phase 1 starts at phase_len" 1 (Lb_alg.phase_of_round p p.Params.phase_len);
  checkb "round 0 is preamble" true (Lb_alg.is_preamble_round p 0);
  checkb "round ts is body" false (Lb_alg.is_preamble_round p p.Params.ts);
  let p2 = small_params ~seed_refresh:2 dual in
  checkb "phase 1 has no preamble at refresh 2" false
    (Lb_alg.is_preamble_round p2 p2.Params.phase_len)

(* --- single node behavior --- *)

let test_ack_timing_exact () =
  (* A bcast delivered at round 0 (a phase boundary) is acked at the last
     round of the tack_phases-th phase. *)
  let dual = Geo.singleton () in
  let params = small_params ~tack_phases:2 dual in
  let envt = Lb_env.one_shot ~n:1 ~bcasts:[ (0, 0) ] in
  let rounds = 4 * params.Params.phase_len in
  let trace, report = run_lb ~params ~envt ~rounds dual in
  checki "one ack" 1 report.Lb_spec.ack_count;
  checki "no late acks" 0 report.Lb_spec.late_ack_count;
  let acks =
    List.filter_map
      (fun (round, out) -> match out with M.Ack _ -> Some round | _ -> None)
      (Trace.outputs_of trace 0)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "ack at end of phase 1"
    [ (2 * params.Params.phase_len) - 1 ]
    acks

let test_ack_timing_mid_phase_bcast () =
  (* A bcast arriving mid-phase waits for the next boundary, then spends
     tack_phases full phases sending. *)
  let dual = Geo.singleton () in
  let params = small_params ~tack_phases:1 dual in
  let mid = params.Params.phase_len / 2 in
  let envt = Lb_env.one_shot ~n:1 ~bcasts:[ (0, mid) ] in
  let rounds = 4 * params.Params.phase_len in
  let trace, _ = run_lb ~params ~envt ~rounds dual in
  let acks =
    List.filter_map
      (fun (round, out) -> match out with M.Ack _ -> Some round | _ -> None)
      (Trace.outputs_of trace 0)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "ack at end of phase 2"
    [ (2 * params.Params.phase_len) - 1 ]
    acks

let test_transmissions_only_in_body () =
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:2 dual in
  let envt = Lb_env.saturate ~n:2 ~senders:[ 0 ] () in
  let rounds = 3 * params.Params.phase_len in
  let trace, _ = run_lb ~params ~envt ~rounds dual in
  Trace.iter
    (fun record ->
      Array.iter
        (fun action ->
          match action with
          | P.Transmit (M.Data _) ->
              checkb "data only in body rounds" false
                (Lb_alg.is_preamble_round params record.Trace.round)
          | P.Transmit (M.Seed_msg _) ->
              checkb "seeds only in preamble" true
                (Lb_alg.is_preamble_round params record.Trace.round)
          | P.Listen -> ())
        record.Trace.actions)
    trace

let test_committed_outputs () =
  let dual = Geo.pair () in
  let params = small_params dual in
  let envt = Lb_env.saturate ~n:2 ~senders:[ 0 ] () in
  let rounds = 2 * params.Params.phase_len in
  let trace, _ = run_lb ~params ~envt ~rounds dual in
  let commits v =
    List.filter_map
      (fun (round, out) ->
        match out with M.Committed a -> Some (round, a) | _ -> None)
      (Trace.outputs_of trace v)
  in
  List.iter
    (fun v ->
      let cs = commits v in
      checki "one commit per phase" 2 (List.length cs);
      List.iter
        (fun (round, { M.owner; _ }) ->
          checki "commit lands on first body round" params.Params.ts
            (round mod params.Params.phase_len);
          checkb "owner is a vertex" true (owner >= 0 && owner < 2))
        cs)
    [ 0; 1 ]

let test_recv_once_per_message () =
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:2 dual in
  let envt = Lb_env.saturate ~n:2 ~senders:[ 0 ] () in
  let rounds = 6 * params.Params.phase_len in
  let trace, _ = run_lb ~params ~envt ~rounds dual in
  let recvs =
    List.filter_map
      (fun (_, out) -> match out with M.Recv p -> Some p | _ -> None)
      (Trace.outputs_of trace 1)
  in
  checkb "received something" true (recvs <> []);
  let distinct = List.sort_uniq compare recvs in
  checki "each message recv'd exactly once" (List.length distinct)
    (List.length recvs)

let test_pair_progress_and_reliability () =
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:2 dual in
  let envt = Lb_env.saturate ~n:2 ~senders:[ 0 ] () in
  let rounds = 8 * params.Params.phase_len in
  let _, report = run_lb ~params ~envt ~rounds dual in
  checki "validity clean" 0 report.Lb_spec.validity_violations;
  checki "no late acks" 0 report.Lb_spec.late_ack_count;
  checki "no missing acks" 0 report.Lb_spec.missing_ack_count;
  checkb "progress opportunities seen" true (report.Lb_spec.progress_opportunities > 0);
  checkb "progress rate high" true (Lb_spec.progress_rate report >= 0.8);
  checkb "reliability attempts" true (report.Lb_spec.reliability_attempts >= 2);
  checkb "reliability perfect on a pair" true
    (Lb_spec.reliability_rate report = 1.0)

let test_clique_all_neighbors_served () =
  let dual = Geo.clique 6 in
  let params = small_params ~tack_phases:4 ~eps1:0.1 dual in
  let envt = Lb_env.one_shot ~n:6 ~bcasts:[ (0, 0) ] in
  let rounds = 6 * params.Params.phase_len in
  let _, report = run_lb ~params ~envt ~rounds dual in
  checki "one ack" 1 report.Lb_spec.ack_count;
  checki "validity" 0 report.Lb_spec.validity_violations;
  checkb "all clique members got the message" true
    (report.Lb_spec.reliability_failures = 0)

let test_random_field_end_to_end () =
  let rng = Rng.of_int 99 in
  let dual =
    Geo.random_field ~rng ~n:25 ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let params = small_params ~tack_phases:3 ~eps1:0.1 dual in
  let envt = Lb_env.saturate ~n:25 ~senders:[ 0; 12 ] () in
  let rounds = 6 * params.Params.phase_len in
  let _, report =
    run_lb ~scheduler:(Sch.bernoulli ~seed:4 ~p:0.5) ~params ~envt ~rounds dual
  in
  checki "validity" 0 report.Lb_spec.validity_violations;
  checki "late acks" 0 report.Lb_spec.late_ack_count;
  checkb "progress mostly succeeds" true (Lb_spec.progress_rate report >= 0.8)

let test_seed_refresh_variant () =
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:2 ~seed_refresh:2 dual in
  let envt = Lb_env.saturate ~n:2 ~senders:[ 0 ] () in
  let rounds = 8 * params.Params.phase_len in
  let _, report = run_lb ~params ~envt ~rounds dual in
  checki "validity clean under refresh" 0 report.Lb_spec.validity_violations;
  checkb "progress still works" true (Lb_spec.progress_rate report >= 0.8);
  checkb "reliability still works" true (Lb_spec.reliability_rate report >= 0.9)

let test_deterministic_replay () =
  let dual = Geo.clique 5 in
  let params = small_params dual in
  let run () =
    let envt = Lb_env.saturate ~n:5 ~senders:[ 0 ] () in
    let _, report = run_lb ~rng_seed:3 ~params ~envt
        ~rounds:(4 * params.Params.phase_len) dual in
    (report.Lb_spec.ack_count, report.Lb_spec.progress_failures,
     report.Lb_spec.reliability_failures)
  in
  checkb "same seeds, same execution" true (run () = run ())

(* --- Lb_env --- *)

(* Node [v]'s recorded bcast inputs and ack outputs as (round, payload),
   in round order. *)
let bcasts_of trace v =
  List.rev
    (Trace.fold
       (fun acc r ->
         List.fold_left (fun acc (M.Bcast p) -> (r.Trace.round, p) :: acc) acc
           r.Trace.inputs.(v))
       [] trace)

let acks_of trace v =
  List.filter_map
    (function round, M.Ack p -> Some (round, p) | _ -> None)
    (Trace.outputs_of trace v)

(* The saturating environment's contract on node [v]'s recorded bcasts
   and acks: the first bcast comes at [next], uids count up from 0 (so
   payloads are unique), each ack answers the bcast before it and the
   next bcast comes one round after it, and only the last bcast may be
   outstanding — bcasts = acks + outstanding. *)
let reissued ~v ~next bcasts acks =
  let rec go ~next ~uid bcasts acks =
    match (bcasts, acks) with
    | [], [] -> true
    | [ (r, p) ], [] -> r = next && p.M.src = v && p.M.uid = uid
    | (r, p) :: bcasts, (ra, pa) :: acks ->
        r = next && p.M.src = v && p.M.uid = uid && M.payload_equal p pa
        && ra >= r
        && go ~next:(ra + 1) ~uid:(uid + 1) bcasts acks
    | _ -> false
  in
  go ~next ~uid:0 bcasts acks

let test_env_one_shot () =
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:1 dual in
  let envt = Lb_env.one_shot ~n:2 ~bcasts:[ (0, 0) ] in
  let trace, _ = run_lb ~params ~envt ~rounds:(3 * params.Params.phase_len) dual in
  let m = M.payload ~src:0 ~uid:0 () in
  checkb "one bcast, at node 0 and round 0" true (bcasts_of trace 0 = [ (0, m) ]);
  checkb "none at node 1" true (bcasts_of trace 1 = []);
  checki "handed over once" 1 (Lb_env.bcasts envt ~node:0);
  checkb "acked" true (List.map snd (acks_of trace 0) = [ m ]);
  checkb "idle after the ack" false (Lb_env.busy envt ~node:0);
  checkb "receiver got it" true
    (List.exists (fun (_, out) -> out = M.Recv m) (Trace.outputs_of trace 1))

let test_env_saturate_reissues () =
  let dual = Geo.singleton () in
  let params = small_params ~tack_phases:1 dual in
  let envt = Lb_env.saturate ~n:1 ~senders:[ 0 ] () in
  let trace, _ = run_lb ~params ~envt ~rounds:(5 * params.Params.phase_len) dual in
  let bcasts = bcasts_of trace 0 in
  checkb "multiple bcasts issued" true (List.length bcasts >= 3);
  checki "every handover recorded" (List.length bcasts) (Lb_env.bcasts envt ~node:0);
  checkb "each re-issued one round after its ack" true
    (reissued ~v:0 ~next:0 bcasts (acks_of trace 0))

let test_env_unique_payloads () =
  let dual = Geo.singleton () in
  let params = small_params ~tack_phases:1 dual in
  let envt = Lb_env.saturate ~n:1 ~senders:[ 0 ] () in
  let trace, _ = run_lb ~params ~envt ~rounds:(5 * params.Params.phase_len) dual in
  let payloads = List.map snd (bcasts_of trace 0) in
  checki "payloads unique" (List.length payloads)
    (List.length (List.sort_uniq compare payloads))

(* Nothing the environment keeps grows with run length: a 48-node field
   where every node saturates, with no monitor, holds as many live words
   at the end of phase 32 as at the end of phase 8. *)
let test_env_saturate_flat () =
  let n = 48 in
  let side = sqrt 24.0 in
  let dual =
    Geo.random_field ~rng:(Rng.of_int 11) ~n ~width:side ~height:side ~r:1.5
      ~gray_g':0.5 ()
  in
  let params = Params.of_dual ~eps1:0.1 ~tack_phases:1 dual in
  let phase_len = params.Params.phase_len in
  let envt = Lb_env.saturate ~n ~senders:(List.init n Fun.id) () in
  let live_words () =
    Gc.full_major ();
    float_of_int (Gc.quick_stat ()).Gc.live_words
  in
  let early = ref 0.0 and late = ref 0.0 in
  let observer record =
    let round = record.Trace.round in
    if round = (8 * phase_len) - 1 then early := live_words ()
    else if round = (32 * phase_len) - 1 then late := live_words ()
  in
  let (_ : int) =
    Engine.run ~observer ~dual
      ~scheduler:(Sch.bernoulli ~seed:7 ~p:0.5)
      ~nodes:(Lb_alg.network params ~rng:(Rng.of_int 7) ~n)
      ~env:(Lb_env.env envt)
      ~rounds:(32 * phase_len) ()
  in
  checkb
    (Printf.sprintf "live words %.0f after phase 8, %.0f after phase 32 (within 10%%)"
       !early !late)
    true
    (!early > 0.0 && Float.abs (!late -. !early) <= 0.1 *. !early)

(* --- Lb_spec monitor on synthetic records --- *)

let mk_record ~n ~round ?(inputs = []) ?(delivered = []) ?(outputs = []) () =
  let input_arr = Array.make n [] in
  List.iter (fun (v, i) -> input_arr.(v) <- i :: input_arr.(v)) inputs;
  let deliver_arr = Array.make n None in
  List.iter (fun (v, m) -> deliver_arr.(v) <- Some m) delivered;
  let output_arr = Array.make n [] in
  List.iter (fun (v, o) -> output_arr.(v) <- output_arr.(v) @ [ o ]) outputs;
  {
    Trace.round;
    inputs = input_arr;
    actions = Array.make n P.Listen;
    delivered = deliver_arr;
    outputs = output_arr;
  }

let synthetic_monitor dual =
  let params = small_params ~tack_phases:1 dual in
  let envt = Lb_env.one_shot ~n:(Dual.n dual) ~bcasts:[] in
  (params, Lb_spec.monitor ~dual ~params ~env:envt ())

let test_spec_validity_violation () =
  let dual = Geo.pair () in
  let _, monitor = synthetic_monitor dual in
  (* A Recv with no active source is a validity violation. *)
  let ghost = M.payload ~src:0 ~uid:9 () in
  Lb_spec.observe monitor
    (mk_record ~n:2 ~round:0 ~outputs:[ (1, M.Recv ghost) ] ());
  let report = Lb_spec.finish monitor in
  checki "violation counted" 1 report.Lb_spec.validity_violations

let test_spec_valid_recv () =
  let dual = Geo.pair () in
  let _, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  Lb_spec.observe monitor
    (mk_record ~n:2 ~round:0 ~inputs:[ (0, M.Bcast m) ]
       ~delivered:[ (1, M.Data m) ]
       ~outputs:[ (1, M.Recv m) ]
       ());
  let report = Lb_spec.finish monitor in
  checki "no violation" 0 report.Lb_spec.validity_violations

let test_spec_reliability_failure () =
  (* Sender acks while a reliable neighbor never received: failure. *)
  let dual = Geo.clique 3 in
  let _, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  Lb_spec.observe monitor
    (mk_record ~n:3 ~round:0 ~inputs:[ (0, M.Bcast m) ]
       ~outputs:[ (1, M.Recv m) ]
       ());
  Lb_spec.observe monitor
    (mk_record ~n:3 ~round:1 ~outputs:[ (0, M.Ack m) ] ());
  let report = Lb_spec.finish monitor in
  checki "attempt" 1 report.Lb_spec.reliability_attempts;
  checki "failure (node 2 missed)" 1 report.Lb_spec.reliability_failures

let test_spec_reliability_success () =
  let dual = Geo.clique 3 in
  let _, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  Lb_spec.observe monitor
    (mk_record ~n:3 ~round:0 ~inputs:[ (0, M.Bcast m) ]
       ~outputs:[ (1, M.Recv m); (2, M.Recv m) ]
       ());
  Lb_spec.observe monitor (mk_record ~n:3 ~round:1 ~outputs:[ (0, M.Ack m) ] ());
  let report = Lb_spec.finish monitor in
  checki "no failure" 0 report.Lb_spec.reliability_failures;
  checkb "rate 1" true (Lb_spec.reliability_rate report = 1.0)

let test_spec_late_and_missing_acks () =
  let dual = Geo.pair () in
  let params, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  let t_ack = Params.t_ack_rounds params in
  Lb_spec.observe monitor (mk_record ~n:2 ~round:0 ~inputs:[ (0, M.Bcast m) ] ());
  for round = 1 to t_ack + 1 do
    Lb_spec.observe monitor (mk_record ~n:2 ~round ())
  done;
  Lb_spec.observe monitor
    (mk_record ~n:2 ~round:(t_ack + 2) ~outputs:[ (0, M.Ack m) ] ());
  let report = Lb_spec.finish monitor in
  checki "late ack" 1 report.Lb_spec.late_ack_count;
  checki "max latency" (t_ack + 2) report.Lb_spec.max_ack_latency;
  (* And a bcast never acked at all: *)
  let _, monitor2 = synthetic_monitor dual in
  let m2 = M.payload ~src:1 ~uid:0 () in
  Lb_spec.observe monitor2 (mk_record ~n:2 ~round:0 ~inputs:[ (1, M.Bcast m2) ] ());
  for round = 1 to t_ack + 5 do
    Lb_spec.observe monitor2 (mk_record ~n:2 ~round ())
  done;
  let report2 = Lb_spec.finish monitor2 in
  checki "missing ack" 1 report2.Lb_spec.missing_ack_count

let test_spec_progress_accounting () =
  let dual = Geo.pair () in
  let params, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  (* Node 0 active through a full phase; node 1 hears nothing: one
     opportunity, one failure. *)
  Lb_spec.observe monitor (mk_record ~n:2 ~round:0 ~inputs:[ (0, M.Bcast m) ] ());
  for round = 1 to params.Params.phase_len - 1 do
    Lb_spec.observe monitor (mk_record ~n:2 ~round ())
  done;
  let report = Lb_spec.finish monitor in
  checki "one opportunity (node 1)" 1 report.Lb_spec.progress_opportunities;
  checki "one failure" 1 report.Lb_spec.progress_failures

let test_spec_progress_success () =
  let dual = Geo.pair () in
  let params, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  Lb_spec.observe monitor (mk_record ~n:2 ~round:0 ~inputs:[ (0, M.Bcast m) ] ());
  Lb_spec.observe monitor
    (mk_record ~n:2 ~round:1 ~delivered:[ (1, M.Data m) ] ());
  for round = 2 to params.Params.phase_len - 1 do
    Lb_spec.observe monitor (mk_record ~n:2 ~round ())
  done;
  let report = Lb_spec.finish monitor in
  checki "opportunity" 1 report.Lb_spec.progress_opportunities;
  checki "no failure" 0 report.Lb_spec.progress_failures

let test_spec_progress_needs_full_phase_activity () =
  (* A neighbor active for only part of the phase creates no obligation. *)
  let dual = Geo.pair () in
  let params, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  (* bcast only at round 3: rounds 0-2 inactive → not active throughout *)
  for round = 0 to 2 do
    Lb_spec.observe monitor (mk_record ~n:2 ~round ())
  done;
  Lb_spec.observe monitor (mk_record ~n:2 ~round:3 ~inputs:[ (0, M.Bcast m) ] ());
  for round = 4 to params.Params.phase_len - 1 do
    Lb_spec.observe monitor (mk_record ~n:2 ~round ())
  done;
  let report = Lb_spec.finish monitor in
  checki "no opportunity" 0 report.Lb_spec.progress_opportunities

let test_spec_partial_phase_ignored () =
  let dual = Geo.pair () in
  let _, monitor = synthetic_monitor dual in
  let m = M.payload ~src:0 ~uid:0 () in
  (* Active nodes but the phase never completes: no progress accounting. *)
  Lb_spec.observe monitor (mk_record ~n:2 ~round:0 ~inputs:[ (0, M.Bcast m) ] ());
  Lb_spec.observe monitor (mk_record ~n:2 ~round:1 ());
  let report = Lb_spec.finish monitor in
  checki "no opportunities from partial phase" 0 report.Lb_spec.progress_opportunities

let test_spec_restarted_sender_owes_nothing () =
  (* Node 0 crashes mid-bcast and restarts as a fresh LBAlg process that
     never received the bcast and never sends it: it is no longer
     actively broadcasting, so node 1 has no progress opportunity in any
     later phase (and none in phase 0, which node 0 spent partly dead). *)
  let dual = Geo.pair () in
  let params = small_params ~tack_phases:1 dual in
  let faults = Faults.Plan.make ~n:2 ~crashes:[ (0, 2) ] ~restarts:[ (0, 3) ] () in
  let envt = Lb_env.one_shot ~n:2 ~bcasts:[ (0, 0) ] in
  let monitor = Lb_spec.monitor ~faults ~dual ~params ~env:envt () in
  let (_ : int) =
    Engine.run ~observer:(Lb_spec.observe monitor) ~faults
      ~revive:(Localcast.Service.reviver ~params ~seed:7 ())
      ~dual ~scheduler:Sch.reliable_only
      ~nodes:(Lb_alg.network params ~rng:(Rng.of_int 7) ~n:2)
      ~env:(Lb_env.env envt)
      ~rounds:(3 * params.Params.phase_len)
      ()
  in
  let report = Lb_spec.finish monitor in
  checki "no opportunities" 0 report.Lb_spec.progress_opportunities;
  checki "no failures" 0 report.Lb_spec.progress_failures

let test_spec_quiet_rounds_allocate_nothing () =
  (* A 100-node monitor fed two phases of records with no bcast, ack or
     recv: the walk, the phase boundaries and the phase judgements stay
     below 0.1 minor words per node-round. *)
  let dual =
    Geo.random_field ~rng:(Rng.of_int 5) ~n:100 ~width:8.0 ~height:8.0 ~r:1.5 ()
  in
  let n = Dual.n dual in
  let params = small_params dual in
  let monitor = Lb_spec.monitor ~dual ~params () in
  let quiet = mk_record ~n ~round:0 () in
  let rounds = 2 * params.Params.phase_len in
  let records = Array.init rounds (fun round -> { quiet with Trace.round }) in
  let w0 = Gc.minor_words () in
  Array.iter (Lb_spec.observe monitor) records;
  let per_node_round = (Gc.minor_words () -. w0) /. float_of_int (n * rounds) in
  checkb (Printf.sprintf "%.4f words per node-round" per_node_round) true
    (per_node_round < 0.1)

let test_spec_rates_empty () =
  let dual = Geo.pair () in
  let _, monitor = synthetic_monitor dual in
  let report = Lb_spec.finish monitor in
  checkb "reliability rate defaults to 1" true (Lb_spec.reliability_rate report = 1.0);
  checkb "progress rate defaults to 1" true (Lb_spec.progress_rate report = 1.0)

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("params validation", test_params_validation);
      ("params structure", test_params_structure);
      ("params kappa refresh", test_params_kappa_refresh);
      ("params level bits", test_params_level_bits);
      ("params monotonicity", test_params_monotonicity);
      ("params of_dual", test_params_of_dual);
      ("params calibration overrides", test_params_calibration_overrides);
      ("params pp", test_params_pp);
      ("phase helpers", test_phase_helpers);
      ("ack timing exact", test_ack_timing_exact);
      ("ack timing mid-phase bcast", test_ack_timing_mid_phase_bcast);
      ("transmissions only in body", test_transmissions_only_in_body);
      ("committed outputs", test_committed_outputs);
      ("recv once per message", test_recv_once_per_message);
      ("pair progress and reliability", test_pair_progress_and_reliability);
      ("clique all neighbors served", test_clique_all_neighbors_served);
      ("random field end-to-end", test_random_field_end_to_end);
      ("seed refresh variant", test_seed_refresh_variant);
      ("deterministic replay", test_deterministic_replay);
      ("env one_shot", test_env_one_shot);
      ("env saturate reissues", test_env_saturate_reissues);
      ("env unique payloads", test_env_unique_payloads);
      ("saturating environment is flat in run length", test_env_saturate_flat);
      ("spec validity violation", test_spec_validity_violation);
      ("spec valid recv", test_spec_valid_recv);
      ("spec reliability failure", test_spec_reliability_failure);
      ("spec reliability success", test_spec_reliability_success);
      ("spec late and missing acks", test_spec_late_and_missing_acks);
      ("spec progress accounting", test_spec_progress_accounting);
      ("spec progress success", test_spec_progress_success);
      ("spec progress needs full-phase activity", test_spec_progress_needs_full_phase_activity);
      ("spec partial phase ignored", test_spec_partial_phase_ignored);
      ("spec restarted sender owes nothing", test_spec_restarted_sender_owes_nothing);
      ("spec quiet rounds allocate nothing", test_spec_quiet_rounds_allocate_nothing);
      ("spec rates empty", test_spec_rates_empty);
    ]
