(* Tests for the synchronous radio engine: the collision rule, oblivious
   link schedulers, environments and traces. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module G = Dualgraph.Graph
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module P = Radiosim.Process
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module Env = Radiosim.Env
module M = Localcast.Messages

(* A node that transmits a fixed data message in the rounds satisfying
   [when_], and listens otherwise. *)
let talker ~src ~when_ =
  let message = M.Data (M.payload ~src ~uid:0 ()) in
  {
    P.decide =
      (fun ~round _ -> if when_ round then P.Transmit message else P.Listen);
    absorb = (fun ~round:_ _ -> []);
  }

let listener () = P.silent ()

let always _ = true

let run_one_round ?(scheduler = Sch.reliable_only) ~dual nodes =
  let trace, obs = Trace.recorder () in
  let env = Env.null ~name:"t" () in
  let (_ : int) =
    Engine.run ~observer:obs ~dual ~scheduler ~nodes ~env ~rounds:1 ()
  in
  Trace.get trace 0

(* --- schedulers --- *)

let test_scheduler_constants () =
  checkb "reliable_only off" false (Sch.active Sch.reliable_only ~round:3 ~edge:0);
  checkb "all_edges on" true (Sch.active Sch.all_edges ~round:3 ~edge:0)

let test_scheduler_bernoulli_deterministic () =
  let s = Sch.bernoulli ~seed:5 ~p:0.5 in
  for round = 0 to 50 do
    checkb "repeatable" (Sch.active s ~round ~edge:2) (Sch.active s ~round ~edge:2)
  done

let test_scheduler_bernoulli_rate () =
  let s = Sch.bernoulli ~seed:5 ~p:0.3 in
  let hits = ref 0 in
  let n = 20_000 in
  for round = 0 to n - 1 do
    if Sch.active s ~round ~edge:(round mod 17) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "rate near p" true (Float.abs (rate -. 0.3) < 0.02)

let test_scheduler_bernoulli_edges_independent () =
  let s = Sch.bernoulli ~seed:5 ~p:0.5 in
  let same = ref 0 in
  for round = 0 to 999 do
    if Sch.active s ~round ~edge:0 = Sch.active s ~round ~edge:1 then incr same
  done;
  checkb "edges decorrelated" true (!same > 350 && !same < 650)

let test_scheduler_flicker () =
  let s = Sch.flicker ~period:4 ~duty:2 in
  checkb "round 0 on" true (Sch.active s ~round:0 ~edge:9);
  checkb "round 1 on" true (Sch.active s ~round:1 ~edge:9);
  checkb "round 2 off" false (Sch.active s ~round:2 ~edge:9);
  checkb "round 3 off" false (Sch.active s ~round:3 ~edge:9);
  checkb "round 4 on again" true (Sch.active s ~round:4 ~edge:9);
  Alcotest.check_raises "validation"
    (Invalid_argument "Scheduler.flicker: need 0 <= duty <= period, period > 0")
    (fun () -> ignore (Sch.flicker ~period:2 ~duty:3))

let test_scheduler_edge_phase () =
  let s = Sch.edge_phase_flicker ~period:3 in
  checkb "edge 0 round 0" true (Sch.active s ~round:0 ~edge:0);
  checkb "edge 0 round 1" false (Sch.active s ~round:1 ~edge:0);
  checkb "edge 1 round 1" true (Sch.active s ~round:1 ~edge:1);
  checkb "edge 4 round 1" true (Sch.active s ~round:1 ~edge:4)

let test_scheduler_thwart () =
  let s = Sch.thwart ~hot:(fun round -> round mod 2 = 0) in
  checkb "hot round" true (Sch.active s ~round:0 ~edge:3);
  checkb "cold round" false (Sch.active s ~round:1 ~edge:3)

(* --- collision rule --- *)

let test_single_transmitter_delivers () =
  let dual = Geo.pair () in
  let record = run_one_round ~dual [| talker ~src:0 ~when_:always; listener () |] in
  checkb "listener hears" true (record.Trace.delivered.(1) <> None);
  checkb "transmitter hears nothing" true (record.Trace.delivered.(0) = None)

let test_two_transmitters_collide () =
  let dual = Geo.clique 3 in
  let record =
    run_one_round ~dual
      [| talker ~src:0 ~when_:always; talker ~src:1 ~when_:always; listener () |]
  in
  checkb "collision at listener" true (record.Trace.delivered.(2) = None)

let test_non_neighbor_silent () =
  (* 0 and 2 are not neighbors on a unit-spaced line with r=1. *)
  let dual = Geo.line ~n:3 ~spacing:0.9 ~r:1.0 () in
  let record =
    run_one_round ~dual [| talker ~src:0 ~when_:always; listener (); listener () |]
  in
  checkb "neighbor hears" true (record.Trace.delivered.(1) <> None);
  checkb "non-neighbor does not" true (record.Trace.delivered.(2) = None)

let test_unreliable_edge_gated_by_scheduler () =
  let dual = Geo.line ~n:3 ~spacing:0.9 ~r:2.0 () in
  (* The only unreliable edge is (0, 2). *)
  let nodes () = [| talker ~src:0 ~when_:always; listener (); listener () |] in
  let on = run_one_round ~scheduler:Sch.all_edges ~dual (nodes ()) in
  checkb "edge on: delivered" true (on.Trace.delivered.(2) <> None);
  let off = run_one_round ~scheduler:Sch.reliable_only ~dual (nodes ()) in
  checkb "edge off: silent" true (off.Trace.delivered.(2) = None)

let test_unreliable_edge_causes_collision () =
  (* The defining dual graph hazard: a reliable transmission that would
     arrive cleanly is destroyed when the scheduler switches in an
     unreliable link carrying a second transmitter. *)
  let dual = Geo.gray_cluster ~k:1 ~r:1.5 () in
  (* vertices: 0 = receiver u, 1 = reliable neighbor v, 2 = grey node *)
  let nodes () =
    [| listener (); talker ~src:1 ~when_:always; talker ~src:2 ~when_:always |]
  in
  let off = run_one_round ~scheduler:Sch.reliable_only ~dual (nodes ()) in
  checkb "without grey edge: v heard" true
    (match off.Trace.delivered.(0) with
    | Some (M.Data p) -> p.M.src = 1
    | _ -> false);
  let on = run_one_round ~scheduler:Sch.all_edges ~dual (nodes ()) in
  checkb "with grey edge: collision" true (on.Trace.delivered.(0) = None)

let test_message_content_preserved () =
  let dual = Geo.pair () in
  let record = run_one_round ~dual [| talker ~src:0 ~when_:always; listener () |] in
  (match record.Trace.delivered.(1) with
  | Some (M.Data p) ->
      checki "src" 0 p.M.src;
      checki "uid" 0 p.M.uid
  | _ -> Alcotest.fail "expected data delivery")

let test_engine_validation () =
  let dual = Geo.pair () in
  let env = Env.null ~name:"t" () in
  Alcotest.check_raises "node count"
    (Invalid_argument "Engine.run: node array size differs from vertex count")
    (fun () ->
      ignore
        (Engine.run ~dual ~scheduler:Sch.reliable_only ~nodes:[| listener () |]
           ~env ~rounds:1 ()));
  Alcotest.check_raises "negative rounds"
    (Invalid_argument "Engine.run: negative round count") (fun () ->
      ignore
        (Engine.run ~dual ~scheduler:Sch.reliable_only
           ~nodes:[| listener (); listener () |]
           ~env ~rounds:(-1) ()))

let test_engine_stop () =
  let dual = Geo.pair () in
  let env = Env.null ~name:"t" () in
  let nodes = [| talker ~src:0 ~when_:(fun r -> r = 3); listener () |] in
  let executed =
    Engine.run ~dual ~scheduler:Sch.reliable_only ~nodes ~env ~rounds:100
      ~stop:(fun record -> record.Trace.delivered.(1) <> None)
      ()
  in
  checki "stopped right after delivery" 4 executed

let test_engine_round_count () =
  let dual = Geo.pair () in
  let env = Env.null ~name:"t" () in
  let executed =
    Engine.run ~dual ~scheduler:Sch.reliable_only
      ~nodes:[| listener (); listener () |]
      ~env ~rounds:17 ()
  in
  checki "all rounds executed" 17 executed

let test_engine_determinism () =
  let mk () =
    let rng = Prng.Rng.of_int 77 in
    let dual =
      Geo.random_field ~rng:(Prng.Rng.of_int 5) ~n:20 ~width:3.0 ~height:3.0
        ~r:1.5 ()
    in
    let nodes =
      Array.init 20 (fun src ->
          let node_rng = Prng.Rng.split rng in
          talker ~src ~when_:(fun _ -> Prng.Rng.bernoulli node_rng 0.3))
    in
    let trace, obs = Trace.recorder () in
    let (_ : int) =
      Engine.run ~observer:obs ~dual
        ~scheduler:(Sch.bernoulli ~seed:3 ~p:0.5)
        ~nodes
        ~env:(Env.null ~name:"t" ())
        ~rounds:50 ()
    in
    List.init 20 (fun v -> (Trace.transmission_count trace v, Trace.deliveries_of trace v))
  in
  checkb "identical executions" true (mk () = mk ())

let test_transmitter_counts () =
  let dual = Geo.clique 4 in
  let transmitting = [| true; true; false; false |] in
  let counts =
    Oracle.transmitter_counts ~dual ~scheduler:Sch.reliable_only ~round:0
      ~transmitting ()
  in
  Alcotest.check (Alcotest.array Alcotest.int) "counts" [| 1; 1; 2; 2 |] counts

let test_transmitter_counts_unreliable () =
  let dual = Geo.line ~n:3 ~spacing:0.9 ~r:2.0 () in
  let transmitting = [| true; false; false |] in
  let on =
    Oracle.transmitter_counts ~dual ~scheduler:Sch.all_edges ~round:0
      ~transmitting ()
  in
  let off =
    Oracle.transmitter_counts ~dual ~scheduler:Sch.reliable_only ~round:0
      ~transmitting ()
  in
  checki "node 2 sees 0 over grey edge (on)" 1 on.(2);
  checki "node 2 sees nothing (off)" 0 off.(2)

(* Scheduler.fill_active_sparse must emit exactly the active edges, as
   strictly ascending indices, for every scheduler kind — the derived
   scan path and both native sparse resolvers (constant schedulers and
   the skip-sampling bernoulli_sparse). *)
let test_scheduler_fill_active_sparse () =
  let schedulers =
    [
      Sch.reliable_only;
      Sch.all_edges;
      Sch.bernoulli ~seed:11 ~p:0.35;
      Sch.bernoulli_sparse ~seed:11 ~p:0.35;
      Sch.bernoulli_sparse ~seed:4 ~p:0.0;
      Sch.bernoulli_sparse ~seed:4 ~p:1.0;
      Sch.flicker ~period:5 ~duty:2;
      Sch.edge_phase_flicker ~period:3;
      Sch.thwart ~hot:(fun round -> round mod 3 = 1);
      Sch.make ~name:"custom" (fun ~round ~edge -> (round + edge) mod 4 = 0);
    ]
  in
  let m = 41 in
  let buf = Array.make m (-1) in
  List.iter
    (fun s ->
      let name = Format.asprintf "%a" Sch.pp s in
      for round = 0 to 24 do
        let count = Sch.fill_active_sparse s ~round ~m buf in
        checkb (Printf.sprintf "%s round %d count in range" name round)
          true
          (count >= 0 && count <= m);
        for i = 1 to count - 1 do
          checkb
            (Printf.sprintf "%s round %d ascending at %d" name round i)
            true
            (buf.(i - 1) < buf.(i))
        done;
        let member = Array.make m false in
        for i = 0 to count - 1 do
          member.(buf.(i)) <- true
        done;
        for edge = 0 to m - 1 do
          checkb
            (Printf.sprintf "%s round %d edge %d" name round edge)
            (Sch.active s ~round ~edge)
            member.(edge)
        done
      done)
    schedulers

(* bernoulli_sparse draws the active set jointly (a count plus
   placements) where bernoulli draws per-edge coins, so the two can only
   be compared in distribution.  Two-sample checks over R rounds with
   deterministic seeds:

   - per-edge marginal: each edge's activation frequency under the two
     schedulers, compared by a two-proportion z statistic, maximized
     over edges;
   - per-round activation count: the Binomial(m, p) count histogram,
     compared by a two-sample χ² statistic.

   With m = 64, p = 0.3, R = 4000 the χ² bins below have expected
   counts well above 5, df = 13, and the 99.9% quantile is ≈ 34.5; the
   z bound 4.5 leaves comparable slack after a union bound over the 64
   edges.  Seeds are fixed, so these never flake — a failure means the
   distribution actually moved. *)
let test_bernoulli_sparse_distribution () =
  let m = 64 and p = 0.3 and rounds = 4000 in
  let dense = Sch.bernoulli ~seed:101 ~p in
  let sparse = Sch.bernoulli_sparse ~seed:202 ~p in
  let per_edge_d = Array.make m 0 and per_edge_s = Array.make m 0 in
  let counts_d = Array.make rounds 0 and counts_s = Array.make rounds 0 in
  let dense_buf = Array.make m 0 in
  let sparse_buf = Array.make m 0 in
  for round = 0 to rounds - 1 do
    let k = Sch.fill_active_sparse dense ~round ~m dense_buf in
    counts_d.(round) <- k;
    for i = 0 to k - 1 do
      per_edge_d.(dense_buf.(i)) <- per_edge_d.(dense_buf.(i)) + 1
    done;
    let k = Sch.fill_active_sparse sparse ~round ~m sparse_buf in
    counts_s.(round) <- k;
    for i = 0 to k - 1 do
      per_edge_s.(sparse_buf.(i)) <- per_edge_s.(sparse_buf.(i)) + 1
    done
  done;
  (* per-edge marginals: two-proportion z, maximized over edges *)
  let r = float_of_int rounds in
  let worst_z = ref 0.0 in
  for edge = 0 to m - 1 do
    let pa = float_of_int per_edge_d.(edge) /. r in
    let pb = float_of_int per_edge_s.(edge) /. r in
    let pool = (pa +. pb) /. 2.0 in
    let se = sqrt (2.0 *. pool *. (1.0 -. pool) /. r) in
    let z = abs_float (pa -. pb) /. se in
    if z > !worst_z then worst_z := z
  done;
  checkb
    (Printf.sprintf "per-edge marginal worst |z| = %.2f < 4.5" !worst_z)
    true (!worst_z < 4.5);
  (* per-round count histogram: two-sample χ² over bins [<=13], 14..25,
     [>=26] — expected bin masses all comfortably above 5 at R=4000 *)
  let lo = 13 and hi = 26 in
  let nbins = hi - lo + 1 in
  let bin c = if c <= lo then 0 else if c >= hi then nbins - 1 else c - lo in
  let hist_d = Array.make nbins 0 and hist_s = Array.make nbins 0 in
  Array.iter (fun c -> hist_d.(bin c) <- hist_d.(bin c) + 1) counts_d;
  Array.iter (fun c -> hist_s.(bin c) <- hist_s.(bin c) + 1) counts_s;
  let chi2 = ref 0.0 in
  for b = 0 to nbins - 1 do
    let o1 = float_of_int hist_d.(b) and o2 = float_of_int hist_s.(b) in
    if o1 +. o2 > 0.0 then
      chi2 := !chi2 +. (((o1 -. o2) ** 2.0) /. (o1 +. o2))
  done;
  checkb
    (Printf.sprintf "per-round count χ² = %.2f < 34.5 (df 13)" !chi2)
    true (!chi2 < 34.5);
  (* and the sample moments of the sparse count sit near Binomial(m, p) *)
  let mean = Array.fold_left (fun a c -> a +. float_of_int c) 0.0 counts_s /. r in
  checkb
    (Printf.sprintf "sparse count mean %.2f ~ %.2f" mean (float_of_int m *. p))
    true
    (abs_float (mean -. (float_of_int m *. p)) < 0.5)

(* --- trace utilities --- *)

let sample_trace () =
  let dual = Geo.pair () in
  let trace, obs = Trace.recorder () in
  let nodes = [| talker ~src:0 ~when_:(fun r -> r mod 2 = 0); listener () |] in
  let (_ : int) =
    Engine.run ~observer:obs ~dual ~scheduler:Sch.reliable_only ~nodes
      ~env:(Env.null ~name:"t" ())
      ~rounds:10 ()
  in
  trace

let test_trace_length_get () =
  let trace = sample_trace () in
  checki "length" 10 (Trace.length trace);
  checki "round stamps" 7 (Trace.get trace 7).Trace.round;
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Trace.get: round out of range") (fun () ->
      ignore (Trace.get trace 10))

let test_trace_queries () =
  let trace = sample_trace () in
  checki "transmissions" 5 (Trace.transmission_count trace 0);
  checki "deliveries" 5 (List.length (Trace.deliveries_of trace 1));
  checki "no outputs" 0 (List.length (Trace.outputs_of trace 0));
  List.iter
    (fun (round, _) -> checkb "delivery on even rounds" true (round mod 2 = 0))
    (Trace.deliveries_of trace 1)

let test_trace_fold_iter () =
  let trace = sample_trace () in
  let folded = Trace.fold (fun acc r -> acc + r.Trace.round) 0 trace in
  checki "fold sums rounds" 45 folded;
  let count = ref 0 in
  Trace.iter (fun _ -> incr count) trace;
  checki "iter visits all" 10 !count

(* The engine lends every round the same four arrays; a recorded trace
   must keep its own copies, or every record would show the last round. *)
let test_trace_recorder_snapshots () =
  let trace, obs = Trace.recorder () in
  let nodes = [| talker ~src:0 ~when_:(fun r -> r = 0); listener () |] in
  let (_ : int) =
    Engine.run ~observer:obs ~dual:(Geo.pair ()) ~scheduler:Sch.reliable_only ~nodes
      ~env:(Env.null ~name:"t" ())
      ~rounds:2 ()
  in
  let r0 = Trace.get trace 0 and r1 = Trace.get trace 1 in
  let transmits r = match r.Trace.actions.(0) with P.Transmit _ -> true | P.Listen -> false in
  checkb "round 0: node 0 transmitted" true (transmits r0);
  checkb "round 1: node 0 listened" false (transmits r1);
  checkb "round 0: node 1 received" true (r0.Trace.delivered.(1) <> None);
  checkb "round 1: node 1 heard nothing" true (r1.Trace.delivered.(1) = None);
  checkb "inputs arrays distinct" true (r0.Trace.inputs != r1.Trace.inputs);
  checkb "actions arrays distinct" true (r0.Trace.actions != r1.Trace.actions);
  checkb "delivered arrays distinct" true (r0.Trace.delivered != r1.Trace.delivered);
  checkb "outputs arrays distinct" true (r0.Trace.outputs != r1.Trace.outputs)

(* --- environments --- *)

let test_env_scripted () =
  let env = Env.scripted ~name:"s" [ (2, 1, "hello"); (5, 0, "bye") ] in
  Alcotest.check (Alcotest.list Alcotest.string) "at round 2 node 1" [ "hello" ]
    (env.Env.inputs ~round:2 ~node:1);
  Alcotest.check (Alcotest.list Alcotest.string) "wrong node" []
    (env.Env.inputs ~round:2 ~node:0);
  Alcotest.check (Alcotest.list Alcotest.string) "wrong round" []
    (env.Env.inputs ~round:3 ~node:1)

let test_env_inputs_reach_process () =
  let dual = Geo.pair () in
  let env = Env.scripted ~name:"s" [ (4, 0, ()) ] in
  let got = ref None in
  let probe =
    {
      P.decide =
        (fun ~round inputs ->
          if inputs <> [] then got := Some round;
          P.Listen);
      absorb = (fun ~round:_ _ -> []);
    }
  in
  let (_ : int) =
    Engine.run ~dual ~scheduler:Sch.reliable_only
      ~nodes:[| probe; listener () |]
      ~env ~rounds:8 ()
  in
  Alcotest.check (Alcotest.option Alcotest.int) "input at round 4" (Some 4) !got

(* The closure call order engine.mli documents, which per-phase timing
   of a run relies on: within every round all [inputs] calls (ascending,
   dead nodes skipped), then all [decide], then all [absorb], then
   [notify] — for every single-tile entry point. *)
let test_engine_call_order () =
  let n = 8 and rounds = 6 in
  let dual = Geo.clique n in
  let faults =
    Faults.Plan.make ~n ~crashes:[ (2, 1); (5, 2) ] ~restarts:[ (2, 3) ] ()
  in
  let dead ~round v = (v = 2 && round >= 1 && round < 3) || (v = 5 && round >= 2) in
  let expected =
    List.concat_map
      (fun round ->
        let alive = List.filter (fun v -> not (dead ~round v)) (List.init n Fun.id) in
        List.concat_map
          (fun (kind, nodes) -> List.map (fun v -> (round, kind, v)) nodes)
          [
            ("inputs", alive);
            ("decide", alive);
            ("absorb", alive);
            ("notify", List.filter (fun v -> v mod 3 = 0) alive);
          ])
      (List.init rounds Fun.id)
  in
  let run entry =
    let log = ref [] in
    let note kind ~round v = log := (round, kind, v) :: !log in
    let nodes =
      Array.init n (fun v ->
          {
            P.decide =
              (fun ~round _ ->
                note "decide" ~round v;
                if (v + round) mod 4 = 0 then P.Transmit v else P.Listen);
            absorb =
              (fun ~round _ ->
                note "absorb" ~round v;
                if v mod 3 = 0 then [ v ] else []);
          })
    in
    let env =
      {
        Env.name = "call-order";
        pure_inputs = true;
        inputs =
          (fun ~round ~node ->
            note "inputs" ~round node;
            []);
        notify = (fun ~round ~node _ -> note "notify" ~round node);
      }
    in
    let scheduler = Sch.bernoulli ~seed:9 ~p:0.5 in
    let (_ : int) =
      match entry with
      | `Run -> Engine.run ~faults ~dual ~scheduler ~nodes ~env ~rounds ()
      | `Adaptive ->
          Engine.run_adaptive ~faults ~dual
            ~adversary:(Radiosim.Adaptive.of_oblivious scheduler)
            ~nodes ~env ~rounds ()
      | `Tiled ->
          Radiosim.Tiled.run ~tiles:1 ~faults ~dual ~scheduler ~nodes ~env
            ~rounds ()
    in
    List.rev !log
  in
  let pp = Alcotest.(list (triple int string int)) in
  Alcotest.check pp "Engine.run" expected (run `Run);
  Alcotest.check pp "Engine.run_adaptive" expected (run `Adaptive);
  Alcotest.check pp "Tiled.run ~tiles:1" expected (run `Tiled)

(* A 300-node field whose nodes each transmit with probability 0.01 per
   round, recorded under [scheduler] with an optional registry. *)
let sparse_field_run ?metrics ~scheduler () =
  let rng = Prng.Rng.of_int 17 in
  let n = 300 in
  let dual =
    Geo.random_field ~rng ~n ~width:12.0 ~height:12.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let nodes =
    Array.init n (fun src ->
        let node_rng = Prng.Rng.split rng in
        let message = M.Data (M.payload ~src ~uid:0 ()) in
        {
          P.decide =
            (fun ~round:_ _ ->
              if Prng.Rng.bernoulli node_rng 0.01 then P.Transmit message
              else P.Listen);
          absorb = (fun ~round:_ _ -> []);
        })
  in
  let transmitters = ref [] in
  let observer r =
    let tx = ref [] in
    Array.iteri
      (fun v a -> match a with P.Transmit _ -> tx := v :: !tx | P.Listen -> ())
      r.Trace.actions;
    transmitters := (r.Trace.round, !tx) :: !transmitters
  in
  let (_ : int) =
    Engine.run ~observer ?metrics ~dual ~scheduler ~nodes
      ~env:(Env.null ~name:"sparse-field" ()) ~rounds:40 ()
  in
  (dual, List.rev !transmitters)

(* A per-edge scheduler (Sch.make) is asked only about the unreliable
   edges incident to the round's transmitters, never about all m. *)
let test_per_edge_resolution_is_transmitter_local () =
  let base = Sch.bernoulli ~seed:3 ~p:0.5 in
  let asked = Hashtbl.create 64 in
  let asked_in round = Option.value ~default:0 (Hashtbl.find_opt asked round) in
  let scheduler =
    Sch.make ~name:"counting" (fun ~round ~edge ->
        Hashtbl.replace asked round (asked_in round + 1);
        Sch.active base ~round ~edge)
  in
  let dual, rounds = sparse_field_run ~scheduler () in
  let off, _, _ = Dual.unreliable_incidence_csr dual in
  let m = Dual.unreliable_count dual in
  let busy = List.filter (fun (_, tx) -> tx <> []) rounds in
  checkb "some rounds have transmitters" true (busy <> []);
  List.iter
    (fun (round, tx) ->
      let degree = List.fold_left (fun a v -> a + off.(v + 1) - off.(v)) 0 tx in
      if asked_in round > degree then
        Alcotest.failf "round %d: %d queries for %d transmitters' %d edges (m = %d)"
          round (asked_in round) (List.length tx) degree m)
    busy

(* With a registry, the counters still describe each resolved round's
   full activation set, as a batch fill of the same scheduler reads it. *)
let test_metered_counters_count_full_set () =
  let scheduler = Sch.bernoulli ~seed:3 ~p:0.5 in
  let metrics = Obs.Metrics.create () in
  let dual, rounds = sparse_field_run ~metrics ~scheduler () in
  let m = Dual.unreliable_count dual in
  let buf = Array.make m 0 in
  let active, resolved =
    List.fold_left
      (fun (a, r) (round, tx) ->
        if tx = [] then (a, r)
        else (a + Sch.fill_active_sparse scheduler ~round ~m buf, r + m))
      (0, 0) rounds
  in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter metrics name) in
  checkb "resolved some rounds" true (resolved > 0);
  checki "engine.active_edges" active (counter "engine.active_edges");
  checki "scheduler.edges_resolved" resolved (counter "scheduler.edges_resolved")

(* The batch form's per-run scratch is the activation list plus one
   mark byte per unreliable edge, nothing sized by n: on a field with
   m ≫ n, a run under a natively sparse scheduler allocates at most about
   m + m/8 words more than one under a per-edge scheduler, which needs
   neither. *)
let test_batch_scratch_footprint () =
  let rng = Prng.Rng.of_int 23 in
  let dual =
    Geo.random_field ~rng ~n:400 ~width:6.0 ~height:6.0 ~r:3.0 ~gray_g':1.0 ()
  in
  let n = Dual.n dual and m = Dual.unreliable_count dual in
  checkb "m >> n" true (m > 50 * n);
  let nodes = Array.init n (fun _ -> listener ()) in
  let env = Env.null ~name:"footprint" () in
  (* The major slice folds allocations made straight in the major heap
     (every array here) into the counters.  They may also take in what
     domains that ended meanwhile allocated, so the least of three
     readings is taken. *)
  let total () =
    ignore (Gc.major_slice 0 : int);
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let words scheduler =
    let once () =
      let before = total () in
      ignore
        (Sys.opaque_identity
           (Engine.run ~dual ~scheduler ~nodes ~env ~rounds:0 ()));
      total () -. before
    in
    min (once ()) (min (once ()) (once ()))
  in
  let per_edge = words (Sch.bernoulli ~seed:1 ~p:0.5) in
  let batch = words (Sch.bernoulli_sparse ~seed:1 ~p:0.5) in
  checkb
    (Printf.sprintf "batch form allocates %.0f more words (m = %d, n = %d)"
       (batch -. per_edge) m n)
    true
    (batch -. per_edge <= float_of_int (m + (m / 8) + 64))

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("scheduler constants", test_scheduler_constants);
      ("scheduler bernoulli deterministic", test_scheduler_bernoulli_deterministic);
      ("scheduler bernoulli rate", test_scheduler_bernoulli_rate);
      ("scheduler bernoulli edges independent", test_scheduler_bernoulli_edges_independent);
      ("scheduler flicker", test_scheduler_flicker);
      ("scheduler edge phase", test_scheduler_edge_phase);
      ("scheduler thwart", test_scheduler_thwart);
      ("single transmitter delivers", test_single_transmitter_delivers);
      ("two transmitters collide", test_two_transmitters_collide);
      ("non-neighbor silent", test_non_neighbor_silent);
      ("unreliable edge gated", test_unreliable_edge_gated_by_scheduler);
      ("unreliable edge causes collision", test_unreliable_edge_causes_collision);
      ("message content preserved", test_message_content_preserved);
      ("engine validation", test_engine_validation);
      ("engine stop", test_engine_stop);
      ("engine round count", test_engine_round_count);
      ("engine determinism", test_engine_determinism);
      ("transmitter counts", test_transmitter_counts);
      ("transmitter counts unreliable", test_transmitter_counts_unreliable);
      ( "per-edge scheduler asked only about transmitters' edges",
        test_per_edge_resolution_is_transmitter_local );
      ( "metered counters count the full activation set",
        test_metered_counters_count_full_set );
      ("batch form scratch is m + m/8 words", test_batch_scratch_footprint);
      ( "scheduler fill_active_sparse agrees with active",
        test_scheduler_fill_active_sparse );
      ( "bernoulli_sparse matches bernoulli in distribution",
        test_bernoulli_sparse_distribution );
      ("trace length/get", test_trace_length_get);
      ("trace queries", test_trace_queries);
      ("trace fold/iter", test_trace_fold_iter);
      ("Trace.recorder keeps snapshots", test_trace_recorder_snapshots);
      ("env scripted", test_env_scripted);
      ("env inputs reach process", test_env_inputs_reach_process);
      ("engine call order", test_engine_call_order);
    ]
