(* The tiled engine's conformance anchor: any tiling must be
   trace-identical — round records, event stream, metrics — to the
   sequential engine (and through it to the retained reference
   resolver), because parallel decomposition is an execution strategy,
   never a semantics change.  Plus units for the tile index, the worker
   pool's failure protocol and the domain budget. *)

open Core
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Tile = Dualgraph.Tile
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Tiled = Radiosim.Tiled
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Rng = Prng.Rng
module Plan = Faults.Plan
module Pool = Parallel.Pool
module Budget = Parallel.Budget

(* Fresh configuration per call: processes hold RNG state, so every run
   under comparison rebuilds its own nodes from the same seeds. *)
let make_config seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 30 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.5 ~height:3.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let p = [| 0.05; 0.15; 0.35; 0.8 |].(seed mod 4) in
  let node_rng = Rng.of_int (seed + 1) in
  let nodes =
    Array.init n (fun src ->
        let node_rng = Rng.split node_rng in
        {
          P.decide =
            (fun ~round:_ _ ->
              if Rng.bernoulli node_rng p then
                P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
              else P.Listen);
          absorb =
            (fun ~round delivered ->
              match delivered with
              | Some (M.Data payload) -> [ (round, payload.M.src) ]
              | Some (M.Seed_msg _) | None -> []);
        })
  in
  (dual, n, nodes)

let scheduler_of_seed = Test_engine_props.scheduler_of_seed

let faults_of_seed ~n ~rounds seed =
  match seed mod 4 with
  | 0 -> None
  | 1 ->
      Some
        (Plan.make ~n
           ~crashes:[ (seed mod n, 2); ((seed + 1) mod n, 5) ]
           ())
  | 2 ->
      let v = seed mod n in
      Some
        (Plan.make ~n ~crashes:[ (v, 1) ]
           ~restarts:[ (v, 4) ]
           ~jams:[ ((seed + 2) mod n, 0, 6); ((seed + 2) mod n, 8, 11) ]
           ())
  | _ -> Some (Plan.churn ~seed ~n ~rounds ~rate:0.04 ~downtime:5 ())

let revive_of ~seed ~node ~round =
  let rng = Rng.node_stream ~seed ~node ~round:(round + 1) in
  {
    P.decide =
      (fun ~round:_ _ ->
        if Rng.bernoulli rng 0.3 then
          P.Transmit (M.Data (M.payload ~src:node ~uid:1 ()))
        else P.Listen);
    absorb = (fun ~round:_ _ -> []);
  }

type execution = {
  executed : int;
  records : (int * string) list;  (** (round, digest of the record) *)
  events : string;  (** JSONL event stream *)
  counters : (string * int) list;
}

(* Record digests: the structural content of each round record,
   printed.  Comparing strings keeps failures readable. *)
let digest_record (r : (M.msg, 'i, int * int) Trace.round_record) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun v a ->
      Buffer.add_string b
        (match a with
        | P.Transmit (M.Data p) -> Printf.sprintf "T%d:%d;" v p.M.src
        | P.Transmit _ -> Printf.sprintf "T%d:?;" v
        | P.Listen -> ""))
    r.Trace.actions;
  Buffer.add_char b '|';
  Array.iteri
    (fun v d ->
      match d with
      | Some (M.Data p) -> Buffer.add_string b (Printf.sprintf "D%d:%d;" v p.M.src)
      | Some _ -> Buffer.add_string b (Printf.sprintf "D%d:?;" v)
      | None -> ())
    r.Trace.delivered;
  Buffer.add_char b '|';
  Array.iteri
    (fun v outs ->
      List.iter
        (fun (round, src) ->
          Buffer.add_string b (Printf.sprintf "O%d:%d@%d;" v src round))
        outs)
    r.Trace.outputs;
  Buffer.contents b

let run_one ~engine ~tiles ~rounds seed =
  let dual, n, nodes = make_config seed in
  let scheduler = scheduler_of_seed seed in
  let faults = faults_of_seed ~n ~rounds seed in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 8))) () in
  let metrics = Obs.Metrics.create () in
  let records = ref [] in
  let observer r = records := (r.Trace.round, digest_record r) :: !records in
  let env = Radiosim.Env.null ~name:"tiled-prop" () in
  let revive ~node ~round = revive_of ~seed ~node ~round in
  let executed =
    if engine then
      Engine.run ~observer ~sink ~metrics ?faults ~revive ~dual ~scheduler
        ~nodes ~env ~rounds ()
    else
      Tiled.run ~observer ~sink ~metrics ?faults ~revive ~tiles ~dual
        ~scheduler ~nodes ~env ~rounds ()
  in
  let buf = Buffer.create 4096 in
  Obs.Sink.iter sink (fun ev ->
      Buffer.add_string buf (Obs.Event.to_json ev);
      Buffer.add_char buf '\n');
  let snap = Obs.Metrics.snapshot ~label:"end" metrics in
  {
    executed;
    records = List.rev !records;
    events = Buffer.contents buf;
    counters = snap.Obs.Metrics.counters;
  }

(* The paper's LB stack on the round core: LBAlg nodes under the
   default bernoulli scheduler (resolved per transmitter edge, on tile
   workers once tiled), saturating senders (an impure environment, so
   the coordinator polls it), the fault shapes above and fresh-state
   revival through Service.reviver. *)
let lb_run ~engine ~tiles seed =
  let rng = Rng.of_int seed in
  let n = 4 + Rng.int rng 20 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let params =
    Localcast.Params.of_dual ~seed_refresh:(1 + Rng.int rng 2) ~eps1:0.25 dual
  in
  let rounds = 2 * params.Localcast.Params.phase_len in
  let senders = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init n Fun.id) in
  let faults = faults_of_seed ~n ~rounds seed in
  let nodes = Localcast.Lb_alg.network params ~rng:(Rng.of_int seed) ~n in
  let env = Localcast.Lb_env.(env (saturate ~n ~senders ())) in
  let revive = Localcast.Service.reviver ~params ~seed () in
  let scheduler = Sch.bernoulli ~seed ~p:0.5 in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 8))) () in
  let metrics = Obs.Metrics.create () in
  let trace, observer = Trace.recorder () in
  let executed =
    if engine then
      Engine.run ~observer ~sink ~metrics ?faults ~revive ~dual ~scheduler
        ~nodes ~env ~rounds ()
    else
      Tiled.run ~observer ~sink ~metrics ?faults ~revive ~tiles ~dual
        ~scheduler ~nodes ~env ~rounds ()
  in
  let buf = Buffer.create 4096 in
  Obs.Sink.iter sink (fun ev ->
      Buffer.add_string buf (Obs.Event.to_json ev);
      Buffer.add_char buf '\n');
  ( executed,
    List.init (Trace.length trace) (Trace.get trace),
    Buffer.contents buf,
    (Obs.Metrics.snapshot ~label:"end" metrics).Obs.Metrics.counters )

let executions_equal a b =
  a.executed = b.executed && a.records = b.records
  && String.equal a.events b.events
  && a.counters = b.counters

(* Reference comparison — run_reference takes no faults/sink, so
   compare plain record streams on fault-free configs. *)
let run_plain ~how ~rounds seed =
  let dual, _, nodes = make_config seed in
  let scheduler = scheduler_of_seed seed in
  let trace, observer = Trace.recorder () in
  let env = Radiosim.Env.null ~name:"tiled-ref" () in
  let executed =
    match how with
    | `Reference ->
        Oracle.run_reference ~observer ~dual ~scheduler ~nodes ~env ~rounds ()
    | `Tiled tiles ->
        Tiled.run ~observer ~tiles ~dual ~scheduler ~nodes ~env ~rounds ()
  in
  ( executed,
    List.init (Trace.length trace) (fun i ->
        digest_record (Trace.get trace i)) )

(* A stateful (impure) environment: inputs consume a per-node schedule
   and the poll order is recorded, so the test pins both the serial
   polling path and its engine-identical visit sequence. *)
let impure_env ~n log =
  let pending = Array.init n (fun v -> [ (0, v * 10); (3, v * 10 + 1) ]) in
  {
    Radiosim.Env.name = "impure";
    pure_inputs = false;
    inputs =
      (fun ~round ~node ->
        log := (round, node) :: !log;
        let take, keep =
          List.partition (fun (r, _) -> r <= round) pending.(node)
        in
        pending.(node) <- keep;
        List.map snd take);
    notify = (fun ~round:_ ~node:_ _ -> ());
  }

let test_tile_partition () =
  List.iter
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 1 + Rng.int rng 200 in
      let dual =
        Geo.random_field ~rng ~n ~width:6.0 ~height:6.0 ~r:1.5 ~gray_g':0.5 ()
      in
      List.iter
        (fun tiles ->
          let t = Tile.of_dual ~tiles dual in
          let k = Tile.tiles t in
          Alcotest.(check bool)
            "tile count clamped to [1, n]"
            true
            (k >= 1 && k <= max n 1 && k <= max tiles 1);
          let seen = Array.make n 0 in
          let lo = n / k and hi = (n / k) + 1 in
          for i = 0 to k - 1 do
            let mem = Tile.members t i in
            let len = Array.length mem in
            Alcotest.(check bool)
              "balanced within one" true
              (len = lo || len = hi);
            Array.iteri
              (fun j v ->
                if j > 0 then
                  Alcotest.(check bool) "members ascending" true (mem.(j - 1) < v);
                Alcotest.(check int) "owner matches membership" i (Tile.owner t v);
                seen.(v) <- seen.(v) + 1)
              mem
          done;
          Array.iteri
            (fun v c -> Alcotest.(check int) (Printf.sprintf "node %d owned once" v) 1 c)
            seen;
          let crossing = Tile.cross_edges t dual in
          Alcotest.(check bool) "cross_edges non-negative" true (crossing >= 0))
        [ 1; 2; 3; 7; 64; 1000 ])
    [ 3; 17; 91 ]

let test_tile_stripes_are_spatial () =
  (* On a wide uniform field, striping by grid columns must cut far
     fewer G' edges than an arbitrary (shuffled-id) equipartition.
     Relabel the same field's vertices randomly: the spatial tiler then
     sees no usable id structure, while the embedding still guides the
     stripes. *)
  let rng = Rng.of_int 4242 in
  let n = 400 in
  let dual =
    Geo.random_field ~rng ~n ~width:16.0 ~height:4.0 ~r:1.2 ~gray_g':0.5 ()
  in
  let t = Tile.of_dual ~tiles:4 dual in
  let spatial = Tile.cross_edges t dual in
  (* Expected cross edges of a random partition: ~ (k-1)/k of all edges. *)
  let g' = Dual.g' dual in
  let total =
    (Array.length (Dualgraph.Graph.csr_neighbors g')) / 2
  in
  Alcotest.(check bool)
    (Printf.sprintf "spatial stripes cut %d of %d edges (< 40%%)" spatial total)
    true
    (float_of_int spatial < 0.4 *. float_of_int total)

let test_pool_runs_all () =
  let pool = Pool.create ~workers:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Array.make 4 0 in
      for _ = 1 to 50 do
        Pool.run pool (fun i -> hits.(i) <- hits.(i) + 1)
      done;
      Array.iteri
        (fun i c -> Alcotest.(check int) (Printf.sprintf "worker %d ran every phase" i) 50 c)
        hits)

exception Boom of int

let test_pool_propagates_failure () =
  let pool = Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let raised =
        try
          Pool.run pool (fun i -> if i = 2 then raise (Boom i));
          None
        with Boom i -> Some i
      in
      Alcotest.(check (option int)) "worker exception re-raised" (Some 2) raised;
      (* The pool survives a failed phase. *)
      let ok = Atomic.make 0 in
      Pool.run pool (fun _ -> ignore (Atomic.fetch_and_add ok 1));
      Alcotest.(check int) "pool still usable" 3 (Atomic.get ok))

let test_budget_accounting () =
  let before = Budget.in_flight () in
  let pool = Pool.create ~workers:3 in
  Alcotest.(check int) "pool registers extra domains" (before + 2)
    (Budget.in_flight ());
  Pool.shutdown pool;
  Alcotest.(check int) "shutdown releases them" before (Budget.in_flight ());
  Alcotest.(check bool) "suggested_extra never negative" true
    (Budget.suggested_extra () >= 0)

let test_tiled_matches_engine_fixed () =
  (* Deterministic spot checks across fault shapes and tile counts,
     comparing the full observable surface (records, events, metrics). *)
  List.iter
    (fun seed ->
      let rounds = 24 in
      let base = run_one ~engine:true ~tiles:1 ~rounds seed in
      List.iter
        (fun tiles ->
          let tiled = run_one ~engine:false ~tiles ~rounds seed in
          if not (executions_equal base tiled) then
            Alcotest.failf
              "seed %d tiles %d: tiled execution diverges from Engine.run \
               (executed %d vs %d; events %d vs %d bytes)"
              seed tiles base.executed tiled.executed
              (String.length base.events)
              (String.length tiled.events))
        [ 1; 2; 3; 5 ])
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_tiled_impure_env () =
  List.iter
    (fun tiles ->
      let run use_tiled =
        let rng = Rng.of_int 99 in
        let n = 12 in
        let dual =
          Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
        in
        let node_rng = Rng.of_int 100 in
        let nodes =
          Array.init n (fun src ->
              let node_rng = Rng.split node_rng in
              {
                P.decide =
                  (fun ~round:_ inputs ->
                    if inputs <> [] || Rng.bernoulli node_rng 0.3 then
                      P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
                    else P.Listen);
                absorb = (fun ~round:_ _ -> []);
              })
        in
        let log = ref [] in
        let env = impure_env ~n log in
        let trace, observer = Trace.recorder () in
        let (_ : int) =
          if use_tiled then
            Tiled.run ~observer ~tiles ~dual
              ~scheduler:(Sch.bernoulli ~seed:7 ~p:0.4)
              ~nodes ~env ~rounds:8 ()
          else
            Engine.run ~observer ~dual
              ~scheduler:(Sch.bernoulli ~seed:7 ~p:0.4)
              ~nodes ~env ~rounds:8 ()
        in
        ( List.rev !log,
          List.init (Trace.length trace) (fun i -> digest_record (Trace.get trace i)) )
      in
      let log_e, trace_e = run false in
      let log_t, trace_t = run true in
      Alcotest.(check bool)
        (Printf.sprintf "tiles %d: impure env polled in the engine's order" tiles)
        true (log_e = log_t);
      Alcotest.(check (list string))
        (Printf.sprintf "tiles %d: impure env trace identical" tiles)
        trace_e trace_t)
    [ 2; 4 ]

let test_tiled_process_failure () =
  let rng = Rng.of_int 5 in
  let n = 10 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let nodes =
    Array.init n (fun src ->
        {
          P.decide =
            (fun ~round _ ->
              if src = 7 && round = 3 then raise (Boom src)
              else P.Transmit (M.Data (M.payload ~src ~uid:0 ())));
          absorb = (fun ~round:_ _ -> []);
        })
  in
  let raised =
    try
      let (_ : int) =
        Tiled.run ~tiles:3 ~dual ~scheduler:Sch.all_edges ~nodes
          ~env:(Radiosim.Env.null ~name:"boom" ())
          ~rounds:10 ()
      in
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "worker-domain process exception re-raised"
    (Some 7) raised

let qcheck_cases =
  let open QCheck in
  [
    Test.make
      ~name:
        "tile obliviousness: any tiling is trace-identical to Engine.run \
         (records, events, metrics) under faults, jams and revival"
      ~count:30 small_int
      (fun seed ->
        let rounds = 20 in
        let base = run_one ~engine:true ~tiles:1 ~rounds seed in
        List.for_all
          (fun tiles ->
            executions_equal base (run_one ~engine:false ~tiles ~rounds seed))
          [ 1; 2; 3; 5 ])
      ;
    Test.make
      ~name:"tile obliviousness: any tiling equals Oracle.run_reference"
      ~count:30 small_int
      (fun seed ->
        let rounds = 15 in
        let reference = run_plain ~how:`Reference ~rounds seed in
        List.for_all
          (fun tiles -> run_plain ~how:(`Tiled tiles) ~rounds seed = reference)
          [ 1; 2; 4 ]);
    Test.make
      ~name:
        "tile obliviousness: LBAlg under bernoulli at tiles 1 and 2 equals \
         Engine.run (records, events, metrics) under faults and revival"
      ~count:12 small_int
      (fun seed ->
        let base = lb_run ~engine:true ~tiles:1 seed in
        List.for_all (fun tiles -> lb_run ~engine:false ~tiles seed = base) [ 1; 2 ]);
  ]

let suite =
  [
    Alcotest.test_case "tile partition invariants" `Quick test_tile_partition;
    Alcotest.test_case "tile stripes follow the embedding" `Quick
      test_tile_stripes_are_spatial;
    Alcotest.test_case "pool runs every worker per phase" `Quick
      test_pool_runs_all;
    Alcotest.test_case "pool re-raises worker exceptions" `Quick
      test_pool_propagates_failure;
    Alcotest.test_case "pool registers with the domain budget" `Quick
      test_budget_accounting;
    Alcotest.test_case "tiled run matches engine on fixed configs" `Quick
      test_tiled_matches_engine_fixed;
    Alcotest.test_case "impure env polls serially in engine order" `Quick
      test_tiled_impure_env;
    Alcotest.test_case "process exception propagates from worker domain" `Quick
      test_tiled_process_failure;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
