(* Property-based tests of LBAlg invariants across random topologies,
   schedulers and environments. *)

open Core

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Params = Localcast.Params
module Lb_alg = Localcast.Lb_alg
module Lb_env = Localcast.Lb_env
module Lb_spec = Localcast.Lb_spec
module Rng = Prng.Rng

(* A randomized LBAlg execution, small enough for hundreds of qcheck
   iterations. *)
let random_run seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 10 in
  let dual =
    Geo.random_field ~rng ~n ~width:2.5 ~height:2.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let params =
    Params.of_dual
      ~tack_phases:(1 + Rng.int rng 3)
      ~seed_refresh:(1 + Rng.int rng 2)
      ~eps1:0.25 dual
  in
  let sender_count = 1 + Rng.int rng (max 1 (n / 2)) in
  let senders = List.init sender_count (fun i -> i * n / sender_count) in
  let nodes = Lb_alg.network params ~rng ~n in
  let envt = Lb_env.saturate ~n ~senders () in
  let phases = 3 * params.Params.seed_refresh in
  let trace, obs = Trace.recorder () in
  let monitor = Lb_spec.monitor ~dual ~params ~env:envt () in
  let observer record =
    obs record;
    Lb_spec.observe monitor record
  in
  let (_ : int) =
    Radiosim.Engine.run ~observer ~dual
      ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
      ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(phases * params.Params.phase_len)
      ()
  in
  (dual, params, trace, Lb_spec.finish monitor, envt)

(* The lazy seed cursor against the frozen walking node
   (Oracle.Lb_alg).  Senders saturate from a random round of the first
   seed cycle, so under seed_refresh > 1 listeners are promoted at
   phase boundaries without a preamble and must replay the takes they
   skipped; half the runs add churn with fresh-state revival.  The run
   lasts seed_refresh + 3 phases past the first cycle, so at
   tack_phases 1 a sender that stays up bcasts at least four messages
   and its receivers replace their entry for it several times (the
   frozen node keeps every payload it heard).  Returns every round
   record, copied. *)
let cursor_run ~frozen seed =
  let rng = Rng.of_int seed in
  let n = 3 + Rng.int rng 10 in
  let dual =
    Geo.random_field ~rng ~n ~width:2.5 ~height:2.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let seed_refresh = 1 + Rng.int rng 3 in
  let params =
    Params.of_dual ~tack_phases:(1 + Rng.int rng 3) ~seed_refresh ~eps1:0.25
      dual
  in
  let seed_source =
    if Rng.bool rng then Some (Lb_alg.Oracle (Rng.of_int (seed + 1))) else None
  in
  let phase_len = params.Params.phase_len in
  let rounds = ((2 * seed_refresh) + 3) * phase_len in
  let start = Rng.int rng (seed_refresh * phase_len) in
  let senders = List.filter (fun _ -> Rng.bool rng) (List.init n Fun.id) in
  let faults =
    if Rng.bool rng then
      Some
        (Faults.Plan.churn ~seed ~n ~rounds ~rate:(1.0 /. float_of_int rounds)
           ~downtime:(phase_len / 2) ())
    else None
  in
  let revive =
    Option.map
      (fun _ ->
        if frozen then fun ~node ~round ->
          Oracle.Lb_alg.node ?seed_source params ~id:node
            ~rng:(Rng.node_stream ~seed ~node ~round:(round + 1))
        else Localcast.Service.reviver ?seed_source ~params ~seed ())
      faults
  in
  let nodes =
    let rng = Rng.of_int seed in
    if frozen then Oracle.Lb_alg.network ?seed_source params ~rng ~n
    else Lb_alg.network ?seed_source params ~rng ~n
  in
  let envt = Lb_env.saturate ~start ~n ~senders () in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Radiosim.Engine.run ~observer ?faults ?revive ~dual
      ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
      ~nodes ~env:(Lb_env.env envt) ~rounds ()
  in
  List.init (Trace.length trace) (Trace.get trace)

(* seed_refresh = 2: node 0 gets its bcast in the middle of phase 0, so
   it listens through phase 0's body and is promoted at phase 1's
   boundary, which carries no preamble.  Its first body step as a sender
   must replay the skipped takes: without them it would read phase 1's
   shared bits from the wrong position and diverge from its seed group
   (the frozen node, which walked every round). *)
let test_midcycle_promotion () =
  let dual = Geo.clique 6 in
  let params = Params.of_dual ~tack_phases:1 ~seed_refresh:2 ~eps1:0.25 dual in
  let phase_len = params.Params.phase_len in
  Alcotest.(check bool) "phase 1 has no preamble" false
    (Lb_alg.is_preamble_round params phase_len);
  let run network =
    let nodes = network ~rng:(Rng.of_int 5) in
    let envt = Lb_env.one_shot ~n:6 ~bcasts:[ (0, phase_len / 2) ] in
    let trace, observer = Trace.recorder () in
    let (_ : int) =
      Radiosim.Engine.run ~observer ~dual ~scheduler:Sch.reliable_only ~nodes
        ~env:(Lb_env.env envt) ~rounds:(2 * phase_len) ()
    in
    trace
  in
  let records trace = List.init (Trace.length trace) (Trace.get trace) in
  let replayed = records (run (Lb_alg.network params ~n:6)) in
  Alcotest.(check bool) "node 0 sends in phase 1" true
    (List.exists
       (fun r ->
         r.Trace.round >= phase_len
         && match r.Trace.actions.(0) with P.Transmit (M.Data _) -> true | _ -> false)
       replayed);
  Alcotest.(check bool) "trace equals the frozen walking node's" true
    (replayed = records (run (Oracle.Lb_alg.network params ~n:6)))

(* Oracle seeds under churn, seed_refresh = 3 (one preamble, then three
   phases of body): node 1 crashes at round 3, is revived with fresh
   state at [restart] (Service.reviver) and gets a bcast there.  Every
   node must commit the cycle's one seed, and every Data transmission
   must fall in a body round where that seed's shared bits, read from
   the cycle's first body round on, let the senders participate. *)
let test_oracle_revival ~restart () =
  let n = 6 in
  let dual = Geo.clique n in
  let params = Params.of_dual ~tack_phases:1 ~seed_refresh:3 ~eps1:0.25 dual in
  let phase_len = params.Params.phase_len and ts = params.Params.ts in
  let restart = restart ~phase_len ~ts in
  let seed_source = Lb_alg.Oracle (Rng.of_int 11) in
  let faults =
    Faults.Plan.make ~n ~crashes:[ (1, 3) ] ~restarts:[ (1, restart) ] ()
  in
  let envt = Lb_env.one_shot ~n ~bcasts:[ (1, restart) ] in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Radiosim.Engine.run ~observer ~faults
      ~revive:(Localcast.Service.reviver ~seed_source ~params ~seed:7 ())
      ~dual ~scheduler:Sch.reliable_only
      ~nodes:(Lb_alg.network ~seed_source params ~rng:(Rng.of_int 5) ~n)
      ~env:(Lb_env.env envt) ~rounds:(3 * phase_len) ()
  in
  let records = List.init (Trace.length trace) (Trace.get trace) in
  let seeds =
    List.concat_map
      (fun r ->
        List.concat_map
          (List.filter_map (function M.Committed c -> Some c.M.seed | _ -> None))
          (Array.to_list r.Trace.outputs))
      records
  in
  Alcotest.(check int) "every node commits once, the revived one too" n
    (List.length seeds);
  let seed = List.hd seeds in
  Alcotest.(check bool) "one seed for the whole cycle" true
    (List.for_all (Prng.Bitstring.equal seed) seeds);
  (* The cycle's participation pattern, body round by body round. *)
  let cursor = Prng.Bitstring.cursor seed in
  let participating =
    Array.init ((3 * phase_len) - ts) (fun _ ->
        let p =
          Prng.Bitstring.take_all_zero cursor params.Params.participant_bits
        in
        if p && params.Params.level_bits > 0 then
          for _ = 1 to params.Params.level_draws do
            ignore (Prng.Bitstring.take_int cursor params.Params.level_bits : int)
          done;
        p)
  in
  let data =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun v ->
            match r.Trace.actions.(v) with
            | P.Transmit (M.Data _) -> Some r.Trace.round
            | _ -> None)
          (List.init n Fun.id))
      records
  in
  Alcotest.(check bool) "the revived node sends" true (data <> []);
  Alcotest.(check (list int)) "every Data transmission in a participating round"
    [] (List.filter (fun t -> not participating.(t - ts)) data)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"validity and ack sanity hold on random runs" ~count:30
      small_int
      (fun seed ->
        let _, _, _, report, _ = random_run seed in
        report.Lb_spec.validity_violations = 0
        && report.Lb_spec.late_ack_count = 0
        && report.Lb_spec.missing_ack_count = 0);
    Test.make ~name:"data only in body rounds, seeds only in preambles"
      ~count:30 small_int
      (fun seed ->
        let _, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun action ->
                match action with
                | P.Transmit (M.Data _) ->
                    if Lb_alg.is_preamble_round params record.Trace.round then
                      ok := false
                | P.Transmit (M.Seed_msg _) ->
                    if not (Lb_alg.is_preamble_round params record.Trace.round)
                    then ok := false
                | P.Listen -> ())
              record.Trace.actions)
          trace;
        !ok);
    Test.make ~name:"acks land on phase-final rounds" ~count:30 small_int
      (fun seed ->
        let _, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun outs ->
                List.iter
                  (fun out ->
                    match out with
                    | M.Ack _ ->
                        if
                          record.Trace.round mod params.Params.phase_len
                          <> params.Params.phase_len - 1
                        then ok := false
                    | M.Recv _ | M.Committed _ -> ())
                  outs)
              record.Trace.outputs)
          trace;
        !ok);
    Test.make ~name:"each node recvs a payload at most once" ~count:30
      small_int
      (fun seed ->
        let dual, _, trace, _, _ = random_run seed in
        let ok = ref true in
        for v = 0 to Dual.n dual - 1 do
          let recvs =
            List.filter_map
              (fun (_, out) -> match out with M.Recv p -> Some p | _ -> None)
              (Trace.outputs_of trace v)
          in
          if List.length (List.sort_uniq compare recvs) <> List.length recvs
          then ok := false
        done;
        !ok);
    Test.make ~name:"progress latencies lie inside the phase" ~count:30
      small_int
      (fun seed ->
        let _, params, _, report, _ = random_run seed in
        List.for_all
          (fun l -> l >= 0 && l < params.Params.phase_len)
          report.Lb_spec.progress_latencies);
    Test.make ~name:"commit events carry real owners and full-length seeds"
      ~count:30 small_int
      (fun seed ->
        let dual, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun outs ->
                List.iter
                  (fun out ->
                    match out with
                    | M.Committed { M.owner; seed = s } ->
                        if owner < 0 || owner >= Dual.n dual then ok := false;
                        if
                          Prng.Bitstring.length s
                          <> params.Params.seed.Params.kappa
                        then ok := false
                    | M.Recv _ | M.Ack _ -> ())
                  outs)
              record.Trace.outputs)
          trace;
        !ok);
    Test.make
      ~name:
        "saturating env re-issues one round after each ack; its bcasts = \
         acks + outstanding, and the acks are the spec monitor's"
      ~count:30 small_int
      (fun seed ->
        let dual, _, trace, report, envt = random_run seed in
        let acks = ref 0 and ok = ref true in
        for v = 0 to Dual.n dual - 1 do
          let bcasts = Test_lb.bcasts_of trace v
          and node_acks = Test_lb.acks_of trace v in
          acks := !acks + List.length node_acks;
          if not (Test_lb.reissued ~v ~next:0 bcasts node_acks) then ok := false;
          if List.length bcasts <> Lb_env.bcasts envt ~node:v then ok := false
        done;
        !ok && !acks = report.Lb_spec.ack_count);
    Test.make
      ~name:
        "lazy seed cursor is trace-identical to the frozen walking node \
         (seed_refresh 1-3, tack_phases 1-3, agreement and oracle seeds, churn)"
      ~count:60 small_int
      (fun seed -> cursor_run ~frozen:false seed = cursor_run ~frozen:true seed);
  ]

let suite =
  Alcotest.test_case "listener promoted mid-cycle replays its skipped takes"
    `Quick test_midcycle_promotion
  :: Alcotest.test_case
       "oracle node revived in phase 0's body joins the cycle's seed" `Quick
       (test_oracle_revival ~restart:(fun ~phase_len:_ ~ts -> ts + 10))
  :: Alcotest.test_case
       "oracle node revived at phase 1 joins the cycle's seed" `Quick
       (test_oracle_revival ~restart:(fun ~phase_len ~ts:_ -> phase_len + 10))
  :: List.map QCheck_alcotest.to_alcotest qcheck_cases
