(* Reception models: the spec grammar, the Dual_graph extraction's
   trace identity, the SINR backend's physics units, and SINR agreement
   between the sequential and tiled engines at any tile count. *)

open Core
module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph
module Emb = Dualgraph.Embedding
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Tiled = Radiosim.Tiled
module Trace = Radiosim.Trace
module Reception = Radiosim.Reception
module Sinr = Radiosim.Sinr
module Dense = Oracle.Sinr_dense
module P = Radiosim.Process
module M = Localcast.Messages
module Rng = Prng.Rng
module Plan = Faults.Plan

(* ---------- spec grammar ---------- *)

let test_spec_parse () =
  let ok spec =
    match Reception.of_spec spec with
    | Ok m -> m
    | Error e -> Alcotest.failf "%S rejected: %s" spec e
  in
  Alcotest.(check string) "dual" "dual-graph" (Reception.name (ok "dual"));
  Alcotest.(check string)
    "dual-graph, case-insensitive" "dual-graph"
    (Reception.name (ok "Dual-Graph"));
  Alcotest.(check bool) "bare sinr = defaults" true
    (ok "sinr" = Reception.sinr ());
  (match ok "sinr:alpha=4,beta=2,noise=1e-3" with
  | Reception.Sinr p ->
      Alcotest.(check (float 0.0)) "alpha" 4.0 p.Reception.alpha;
      Alcotest.(check (float 0.0)) "beta" 2.0 p.Reception.beta;
      Alcotest.(check (float 0.0)) "noise" 1e-3 p.Reception.noise;
      Alcotest.(check (float 0.0)) "power default" 1.0 p.Reception.power;
      Alcotest.(check int) "near default" 2 p.Reception.near
  | Reception.Dual_graph -> Alcotest.fail "sinr spec parsed as dual");
  Alcotest.(check bool) "dual needs no embedding" false
    (Reception.requires_embedding (ok "dual"));
  Alcotest.(check bool) "sinr needs an embedding" true
    (Reception.requires_embedding (ok "sinr"));
  List.iter
    (fun bad ->
      match Reception.of_spec bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [
      "bogus";
      "sinr:alpha=0";
      "sinr:alpha=-1";
      "sinr:beta=nan";
      "sinr:noise=-0.1";
      "sinr:power=0";
      "sinr:near=0";
      "sinr:near=1.5";
      "sinr:volume=11";
      "sinr:alpha";
      "sinr:alpha=x";
    ]

let test_spec_roundtrip () =
  let rng = Rng.of_int 2024 in
  for _ = 1 to 50 do
    let m =
      if Rng.bernoulli rng 0.2 then Reception.dual_graph
      else
        Reception.sinr
          ~alpha:(0.5 +. Rng.float rng 5.0)
          ~beta:(0.1 +. Rng.float rng 4.0)
          ~noise:(Rng.float rng 0.2)
          ~power:(0.1 +. Rng.float rng 9.0)
          ~jam:(Rng.float rng 2000.0)
          ~near:(1 + Rng.int rng 6)
          ()
    in
    match Reception.of_spec (Reception.to_spec m) with
    | Ok m' ->
        if m <> m' then
          Alcotest.failf "spec %S did not round-trip" (Reception.to_spec m)
    | Error e -> Alcotest.failf "own spec %S rejected: %s" (Reception.to_spec m) e
  done

(* ---------- guard rails ---------- *)

(* A 2-node explicit dual: points at distance exactly 1, one reliable
   edge, no unreliable ones.  Small enough to compute the SINR test by
   hand. *)
let two_node_dual () =
  let emb = Emb.create [| { Emb.x = 0.0; y = 0.0 }; { Emb.x = 1.0; y = 0.0 } |] in
  let g = Graph.create ~n:2 ~edges:[ (0, 1) ] in
  Dual.create ~embedding:emb ~r:1.5 ~g ~g':g ()

let one_transmitter ~n ~src =
  Array.init n (fun v ->
      if v = src then
        {
          P.decide = (fun ~round:_ _ -> P.Transmit (M.Data (M.payload ~src ~uid:0 ())));
          absorb = (fun ~round:_ _ -> []);
        }
      else
        {
          P.decide = (fun ~round:_ _ -> P.Listen);
          absorb = (fun ~round:_ _ -> []);
        })

let run_two_node ?faults ~reception () =
  let dual = two_node_dual () in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Engine.run ~observer ?faults ~reception ~dual ~scheduler:Sch.reliable_only
      ~nodes:(one_transmitter ~n:2 ~src:1)
      ~env:(Radiosim.Env.null ~name:"rx" ())
      ~rounds:1 ()
  in
  (Trace.get trace 0).Trace.delivered.(0)

let test_adaptive_rejects_sinr () =
  let dual = two_node_dual () in
  let raised =
    try
      let (_ : int) =
        Engine.run_adaptive
          ~reception:(Reception.sinr ())
          ~dual
          ~adversary:(Radiosim.Adaptive.of_oblivious Sch.reliable_only)
          ~nodes:(one_transmitter ~n:2 ~src:1)
          ~env:(Radiosim.Env.null ~name:"rx" ())
          ~rounds:1 ()
      in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "run_adaptive + Sinr raises" true raised

let test_sinr_needs_embedding () =
  let g = Graph.create ~n:2 ~edges:[ (0, 1) ] in
  let dual = Dual.create ~g ~g':g () in
  let raised =
    try
      let (_ : int) =
        Engine.run
          ~reception:(Reception.sinr ())
          ~dual ~scheduler:Sch.reliable_only
          ~nodes:(one_transmitter ~n:2 ~src:1)
          ~env:(Radiosim.Env.null ~name:"rx" ())
          ~rounds:1 ()
      in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "embeddingless dual raises under SINR" true raised

(* ---------- physics units ---------- *)

let test_beta_threshold_edge () =
  (* One transmitter at distance 1: signal = power = 1 at any alpha, no
     other transmitter, empty far field — the SINR test reduces to
     1 >= beta * noise.  With beta = 2 and noise = 1/2 that is exact
     equality, which must decode (the rule is >=, not >); one ulp more
     noise must drown it. *)
  let decode noise =
    run_two_node
      ~reception:(Reception.sinr ~alpha:3.0 ~beta:2.0 ~noise ~power:1.0 ())
      ()
  in
  Alcotest.(check bool) "exact threshold decodes" true (decode 0.5 <> None);
  Alcotest.(check bool) "one ulp past the threshold drowns" true
    (decode (Float.succ 0.5) = None)

let test_jam_is_additive_noise () =
  let sinr = Reception.sinr () in
  (* Baseline: the lone neighbor is decodable. *)
  Alcotest.(check bool) "unjammed SINR decodes" true
    (run_two_node ~reception:sinr () <> None);
  (* Jam the listener: its noise floor gains [jam = 1000], far above
     the signal, so reception dies at the victim. *)
  let jam_listener = Plan.make ~n:2 ~jams:[ (0, 0, 1) ] () in
  Alcotest.(check bool) "jammed listener is deafened" true
    (run_two_node ~faults:jam_listener ~reception:sinr () = None);
  (* Jam the transmitter: under SINR the radio still transmits (only
     its reception would suffer), so the listener still decodes —
     exactly where the two physics part ways, because the dual-graph
     model suppresses the jammed transmission instead. *)
  let jam_tx = Plan.make ~n:2 ~jams:[ (1, 0, 1) ] () in
  Alcotest.(check bool) "jammed SINR transmitter is still heard" true
    (run_two_node ~faults:jam_tx ~reception:sinr () <> None);
  Alcotest.(check bool) "jammed dual-graph transmitter is suppressed" true
    (run_two_node ~faults:jam_tx ~reception:Reception.dual_graph () = None)

let test_distance_monotonicity () =
  (* A line of nodes one unit apart, node 0 transmitting.  Signal must
     fall strictly with distance, and the decode verdict must be a
     prefix: success out to d* = (power/(beta*noise))^(1/alpha) ~ 4.05,
     drowned beyond. *)
  let n = 6 in
  let emb =
    Emb.create (Array.init n (fun i -> { Emb.x = float_of_int i; y = 0.0 }))
  in
  let g =
    Graph.create ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))
  in
  let dual = Dual.create ~embedding:emb ~r:1.0 ~g ~g':g () in
  let params =
    match Reception.sinr ~near:100 () with
    | Reception.Sinr p -> p
    | Reception.Dual_graph -> assert false
  in
  let field = Sinr.create ~params dual in
  let dense = Dense.create ~params dual field in
  Dense.load dense ~transmitters:[| 0 |] ~count:1;
  let prev = ref infinity in
  for v = 1 to n - 1 do
    let best, signal, _ = Dense.diag dense ~jammed:false ~listener:v in
    Alcotest.(check int) (Printf.sprintf "node %d hears node 0" v) 0 best;
    Alcotest.(check bool)
      (Printf.sprintf "signal at %d weaker than at %d" v (v - 1))
      true (signal < !prev);
    prev := signal;
    let verdict = Dense.receive dense ~jammed:false ~listener:v in
    let expect = if float_of_int v <= 4.05 then 0 else -2 in
    Alcotest.(check int)
      (Printf.sprintf "decode verdict at distance %d" v)
      expect verdict
  done

(* ---------- trace identity ---------- *)

(* The full-surface comparison harness of test_tiled, with the
   reception model as a parameter: records, event stream and counters
   must agree between any two ways of running the same configuration. *)
type execution = {
  executed : int;
  records : (int * string) list;
  events : string;
  counters : (string * int) list;
}

let run_full ?reception ~engine ~tiles ~rounds seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 30 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.5 ~height:3.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let scheduler = Test_engine_props.scheduler_of_seed seed in
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
  let faults =
    match seed mod 4 with
    | 0 -> None
    | 1 -> Some (Plan.make ~n ~crashes:[ (seed mod n, 2); ((seed + 1) mod n, 5) ] ())
    | 2 ->
        let v = seed mod n in
        Some
          (Plan.make ~n ~crashes:[ (v, 1) ]
             ~restarts:[ (v, 4) ]
             ~jams:[ ((seed + 2) mod n, 0, 6); ((seed + 2) mod n, 8, 11) ]
             ())
    | _ -> Some (Plan.churn ~seed ~n ~rounds ~rate:0.04 ~downtime:5 ())
  in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 8))) () in
  let metrics = Obs.Metrics.create () in
  let records = ref [] in
  let digest (r : (M.msg, 'i, int * int) Trace.round_record) =
    let b = Buffer.create 256 in
    Array.iteri
      (fun v a ->
        match a with
        | P.Transmit (M.Data pl) -> Buffer.add_string b (Printf.sprintf "T%d:%d;" v pl.M.src)
        | P.Transmit _ -> Buffer.add_string b (Printf.sprintf "T%d:?;" v)
        | P.Listen -> ())
      r.Trace.actions;
    Buffer.add_char b '|';
    Array.iteri
      (fun v d ->
        match d with
        | Some (M.Data pl) -> Buffer.add_string b (Printf.sprintf "D%d:%d;" v pl.M.src)
        | Some _ -> Buffer.add_string b (Printf.sprintf "D%d:?;" v)
        | None -> ())
      r.Trace.delivered;
    Buffer.contents b
  in
  let observer r = records := (r.Trace.round, digest r) :: !records in
  let env = Radiosim.Env.null ~name:"rx-prop" () in
  let revive ~node ~round =
    let rng = Rng.node_stream ~seed ~node ~round:(round + 1) in
    {
      P.decide =
        (fun ~round:_ _ ->
          if Rng.bernoulli rng 0.3 then
            P.Transmit (M.Data (M.payload ~src:node ~uid:1 ()))
          else P.Listen);
      absorb = (fun ~round:_ _ -> []);
    }
  in
  let executed =
    if engine then
      Engine.run ~observer ~sink ~metrics ?faults ~revive ?reception ~dual
        ~scheduler ~nodes ~env ~rounds ()
    else
      Tiled.run ~observer ~sink ~metrics ?faults ~revive ?reception ~tiles
        ~dual ~scheduler ~nodes ~env ~rounds ()
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

let executions_equal a b =
  a.executed = b.executed && a.records = b.records
  && String.equal a.events b.events
  && a.counters = b.counters

(* Naive all-pairs SINR evaluation, written independently of the
   column bucketing: plain id-order accumulation over every
   transmitter. *)
let naive_receive ~params ~emb ~transmitters ~listener =
  let p : Reception.sinr = params in
  let lp = Emb.point emb listener in
  let best = ref (-1) and best_pw = ref 0.0 and sum = ref 0.0 in
  Array.iter
    (fun w ->
      let wp = Emb.point emb w in
      let dx = wp.Emb.x -. lp.Emb.x and dy = wp.Emb.y -. lp.Emb.y in
      let d2 = Float.max ((dx *. dx) +. (dy *. dy)) 1e-12 in
      let pw = p.Reception.power *. (d2 ** (-.p.Reception.alpha /. 2.0)) in
      sum := !sum +. pw;
      if pw > !best_pw then begin
        best_pw := pw;
        best := w
      end)
    transmitters;
  if !best < 0 then (-1, 0.0, 0.0)
  else
    ( !best,
      !best_pw,
      !sum -. !best_pw +. p.Reception.noise )

(* ---------- sparse-kernel guard rails ---------- *)

(* A transmitter exactly on a near-band column boundary: cell = max r 1
   = 1, a node at x = 0 pins the grid origin, and the transmitter sits
   at x = 3.0 — the edge between columns 2 and 3 (half-open cells put it
   in column 3).  Activation and the batched slot path must agree with
   the frozen dense reference. *)
let test_boundary_column () =
  let xs = [| 0.0; 0.5; 1.5; 2.5; 3.0; 3.5; 4.5; 5.5 |] in
  let n = Array.length xs in
  let emb = Emb.create (Array.map (fun x -> { Emb.x; y = 0.0 }) xs) in
  (* SINR never reads the link graphs, only the embedding and r — an
     edgeless pair keeps the fixture minimal (validation skipped: no
     edges means the r-geographic conditions cannot hold). *)
  let g = Graph.create ~n ~edges:[] in
  let dual = Dual.create ~embedding:emb ~r:1.0 ~validate:false ~g ~g':g () in
  let params =
    match Reception.sinr ~alpha:3.0 ~beta:1.2 ~noise:0.02 ~near:1 () with
    | Reception.Sinr p -> p
    | Reception.Dual_graph -> assert false
  in
  let field = Sinr.create ~params dual in
  let tx = 4 (* x = 3.0 *) in
  Alcotest.(check int) "cols" 6 (Sinr.cols field);
  Alcotest.(check int) "boundary transmitter lands in column 3" 3
    (Sinr.column_of field tx);
  Sinr.load_round field ~transmitters:[| tx |] ~count:1;
  let dense = Dense.create ~params dual field in
  Dense.load dense ~transmitters:[| tx |] ~count:1;
  List.iter
    (fun (c, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "column %d active" c)
        expect
        (Sinr.column_active field c))
    [ (0, false); (1, false); (2, true); (3, true); (4, true); (5, false) ];
  let act, nact = Sinr.active_columns field in
  Alcotest.(check (list int)) "active list" [ 2; 3; 4 ]
    (Array.to_list (Array.sub act 0 nact));
  for u = 0 to n - 1 do
    if u <> tx then begin
      let rr = Dense.receive dense ~jammed:false ~listener:u in
      if not (Sinr.column_active field (Sinr.column_of field u)) then
        Alcotest.(check int) (Printf.sprintf "skipped listener %d silent" u)
          (-1) rr
    end
  done;
  let soff = Sinr.slot_off field and snode = Sinr.slot_node field in
  for c = 0 to Sinr.cols field - 1 do
    if Sinr.column_active field c then begin
      Sinr.scan_slots field ~column:c ~lo:soff.(c) ~hi:soff.(c + 1);
      for s = soff.(c) to soff.(c + 1) - 1 do
        let u = snode.(s) in
        if u <> tx then
          Alcotest.(check int)
            (Printf.sprintf "verdict at slot %d = reference" s)
            (Dense.receive dense ~jammed:false ~listener:u)
            (Sinr.verdict field ~jammed:false ~slot:s)
      done
    end
  done

(* ---------- the decode cut ---------- *)

(* An edgeless dual over explicit points: SINR reads only the embedding
   and r (validation skipped, as in the boundary-column fixture). *)
let points_dual ~r pts =
  let n = Array.length pts in
  let emb = Emb.create (Array.map (fun (x, y) -> { Emb.x; y }) pts) in
  let g = Graph.create ~n ~edges:[] in
  Dual.create ~embedding:emb ~r ~validate:false ~g ~g':g ()

(* Loads one round into a fresh field and its dense reference, then
   checks every listener: a listener of an inactive column must be
   silent in the reference, and every active column is scanned whole
   and again as two slot halves (the split a column straddling two
   tiles gets), each scan's verdicts equal to the reference's. *)
let cut_agrees ~params dual ~transmitters ~jam =
  let n = Dual.n dual and count = Array.length transmitters in
  let field = Sinr.create ~params dual in
  let dense = Dense.create ~params dual field in
  Sinr.load_round field ~transmitters ~count;
  Dense.load dense ~transmitters ~count;
  let is_tx = Array.make n false in
  Array.iter (fun v -> is_tx.(v) <- true) transmitters;
  let expect = Array.init n (fun u -> Dense.receive dense ~jammed:jam.(u) ~listener:u) in
  let ok = ref true in
  for u = 0 to n - 1 do
    if (not is_tx.(u)) && (not (Sinr.column_active field (Sinr.column_of field u)))
       && expect.(u) <> -1
    then ok := false
  done;
  let soff = Sinr.slot_off field and snode = Sinr.slot_node field in
  let scan ~column ~lo ~hi =
    Sinr.scan_slots field ~column ~lo ~hi;
    for s = lo to hi - 1 do
      let u = snode.(s) in
      if (not is_tx.(u)) && Sinr.verdict field ~jammed:jam.(u) ~slot:s <> expect.(u) then
        ok := false
    done
  in
  let act, nact = Sinr.active_columns field in
  for a = 0 to nact - 1 do
    let c = act.(a) in
    let lo = soff.(c) and hi = soff.(c + 1) in
    scan ~column:c ~lo ~hi;
    let mid = (lo + hi) / 2 in
    scan ~column:c ~lo ~hi:mid;
    scan ~column:c ~lo:mid ~hi
  done;
  !ok

(* The decode cut's guards in [Sinr.create], each on a field where a
   finite cut would answer "drowned" for listeners the reference hears
   as silence.  Positivity: nodes 2,000 apart at alpha = 100 receive
   P·2000^-100, which underflows to 0.0, so no listener has a
   candidate, while the cut (about 1.04 here) excludes every one of
   them.  Coordinates: a listener at a NaN y has NaN distances, so no
   candidate either, and the grid clamps it into row 0, out of reach
   of the range query around a transmitter 100 rows up. *)
let test_cut_guards () =
  let silent name ~params pts ~transmitters ~listeners =
    let dual = points_dual ~r:1.0 pts in
    let dense = Dense.create ~params dual (Sinr.create ~params dual) in
    Dense.load dense ~transmitters ~count:(Array.length transmitters);
    List.iter
      (fun u ->
        Alcotest.(check int)
          (Printf.sprintf "%s: reference hears silence at %d" name u)
          (-1)
          (Dense.receive dense ~jammed:false ~listener:u))
      listeners;
    Alcotest.(check bool)
      (name ^ ": verdicts = reference")
      true
      (cut_agrees ~params dual ~transmitters
         ~jam:(Array.make (Array.length pts) false))
  in
  let sinr ?alpha ?near () =
    match Reception.sinr ?alpha ?near () with
    | Reception.Sinr p -> p
    | Reception.Dual_graph -> assert false
  in
  silent "underflowing powers"
    ~params:(sinr ~alpha:100.0 ~near:10_000 ())
    (Array.init 4 (fun i -> (2000.0 *. float_of_int i, 0.0)))
    ~transmitters:[| 0; 2 |] ~listeners:[ 1; 3 ];
  silent "NaN coordinate" ~params:(sinr ())
    [| (0.5, 100.0); (0.5, 0.0); (0.5, Float.nan) |]
    ~transmitters:[| 0 |] ~listeners:[ 2 ]

(* The round kernels allocate nothing at steady state: load_round plus a
   full active-column sweep (batched scans + verdicts), probed like the
   Serve engine's zero-allocation loop. *)
let test_kernel_no_alloc () =
  let rng = Rng.of_int 4242 in
  let n = 256 in
  let dual =
    Geo.random_field ~rng ~n ~width:16.0 ~height:16.0 ~r:1.0 ~gray_g':0.5 ()
  in
  let params =
    match Reception.sinr ~alpha:3.0 ~beta:1.2 ~noise:0.02 () with
    | Reception.Sinr p -> p
    | Reception.Dual_graph -> assert false
  in
  let field = Sinr.create ~params dual in
  (* A cycle of non-empty sparse transmitter sets (ascending ids). *)
  let sets =
    Array.init 16 (fun i ->
        match
          List.filter
            (fun _ -> Rng.bernoulli rng (1.0 /. 256.0))
            (List.init n Fun.id)
        with
        | [] -> [| i * 37 mod n |]
        | l -> Array.of_list l)
  in
  let soff = Sinr.slot_off field in
  let run_round i =
    let tx = sets.(i mod 16) in
    Sinr.load_round field ~transmitters:tx ~count:(Array.length tx);
    let act, nact = Sinr.active_columns field in
    let sink = ref 0 in
    for a = 0 to nact - 1 do
      let c = Array.unsafe_get act a in
      Sinr.scan_slots field ~column:c ~lo:soff.(c) ~hi:soff.(c + 1);
      (* reads every slot, transmitters included — pure scratch reads *)
      for s = soff.(c) to soff.(c + 1) - 1 do
        sink := !sink + Sinr.verdict field ~jammed:false ~slot:s
      done
    done;
    !sink
  in
  for i = 0 to 31 do
    ignore (run_round i)
  done;
  let rounds = 1000 in
  let w0 = Gc.minor_words () in
  let acc = ref 0 in
  for i = 0 to rounds - 1 do
    acc := !acc + run_round i
  done;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int rounds in
  ignore !acc;
  Alcotest.(check bool)
    (Printf.sprintf "steady-state kernel allocation (%.3f minor words/round)"
       per_round)
    true (per_round < 8.0)

let qcheck_cases =
  let open QCheck in
  [
    Test.make
      ~name:
        "explicit Dual_graph reception is the default: identical records, \
         events and counters at any tile count, under the scheduler and \
         fault zoo"
      ~count:25 small_int
      (fun seed ->
        let rounds = 20 in
        let base = run_full ~engine:true ~tiles:1 ~rounds seed in
        let explicit =
          run_full ~reception:Reception.dual_graph ~engine:true ~tiles:1
            ~rounds seed
        in
        executions_equal base explicit
        && List.for_all
             (fun tiles ->
               executions_equal base
                 (run_full ~reception:Reception.dual_graph ~engine:false
                    ~tiles ~rounds seed))
             [ 2; 3 ]);
    Test.make
      ~name:
        "SINR: tiled execution is trace-identical to the sequential engine \
         at any tile count, under the scheduler and fault zoo"
      ~count:25 small_int
      (fun seed ->
        let rounds = 20 in
        let reception =
          Reception.sinr ~alpha:3.0 ~beta:1.2 ~noise:0.02
            ~near:(1 + (seed mod 3))
            ()
        in
        let base = run_full ~reception ~engine:true ~tiles:1 ~rounds seed in
        List.for_all
          (fun tiles ->
            executions_equal base
              (run_full ~reception ~engine:false ~tiles ~rounds seed))
          [ 1; 2; 3; 5 ]);
    Test.make
      ~name:
        "SINR column bucketing agrees with a naive all-pairs sum when the \
         near band covers the whole field"
      ~count:40 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 31) in
        let n = 3 + Rng.int rng 40 in
        let dual =
          Geo.random_field ~rng ~n ~width:6.0 ~height:6.0 ~r:1.5 ~gray_g':0.5 ()
        in
        let emb = Option.get (Dual.embedding dual) in
        let params =
          match
            Reception.sinr
              ~alpha:(2.0 +. Rng.float rng 3.0)
              ~beta:(0.5 +. Rng.float rng 2.0)
              ~noise:(0.001 +. Rng.float rng 0.1)
              ~near:10_000 ()
          with
          | Reception.Sinr p -> p
          | Reception.Dual_graph -> assert false
        in
        let field = Sinr.create ~params dual in
        let transmitters =
          Array.of_list
            (List.filter (fun _ -> Rng.bernoulli rng 0.3) (List.init n Fun.id))
        in
        if Array.length transmitters = 0 then true
        else begin
          Sinr.load_round field ~transmitters
            ~count:(Array.length transmitters);
          let dense = Dense.create ~params dual field in
          Dense.load dense ~transmitters ~count:(Array.length transmitters);
          let is_tx = Array.make n false in
          Array.iter (fun v -> is_tx.(v) <- true) transmitters;
          (* The band covers the field, so a batched scan of every
             column yields every node's verdict. *)
          let verdict = Array.make n (-1) in
          let soff = Sinr.slot_off field and snode = Sinr.slot_node field in
          for c = 0 to Sinr.cols field - 1 do
            Sinr.scan_slots field ~column:c ~lo:soff.(c) ~hi:soff.(c + 1);
            for s = soff.(c) to soff.(c + 1) - 1 do
              verdict.(snode.(s)) <- Sinr.verdict field ~jammed:false ~slot:s
            done
          done;
          let ok = ref true in
          for u = 0 to n - 1 do
            if not is_tx.(u) then begin
              let nbest, nsig, ninterf =
                naive_receive ~params ~emb ~transmitters ~listener:u
              in
              let gbest, gsig, ginterf =
                Dense.diag dense ~jammed:false ~listener:u
              in
              (* Different accumulation orders, so compare to relative
                 tolerance; the candidate and its (order-free) signal
                 must agree exactly.  Interference is the band sum minus
                 the signal, so its rounding error scales with the whole
                 sum: a near-coincident transmitter's huge signal leaves
                 a few ulps of it in the difference. *)
              let close a b =
                Float.abs (a -. b)
                <= 1e-9 *. Float.max 1.0 (Float.abs b +. gsig)
              in
              if
                nbest <> gbest
                || nsig <> gsig
                || not (close ninterf ginterf)
                || verdict.(u)
                   <> (if nbest < 0 then -1
                       else if gsig >= params.Reception.beta *. ginterf then
                         nbest
                       else -2)
              then ok := false
            end
          done;
          !ok
        end);
    Test.make
      ~name:
        "SINR sparse kernels ≡ frozen dense reference: receive, batched \
         verdicts and the skip set agree on random fields, transmitter sets \
         and jam flags"
      ~count:60 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 977) in
        let n = 3 + Rng.int rng 60 in
        let r = if Rng.bernoulli rng 0.5 then 1.0 else 1.6 in
        let dual =
          Geo.random_field ~rng ~n ~width:9.0 ~height:4.0 ~r ~gray_g':0.5 ()
        in
        let params =
          match
            Reception.sinr
              ~alpha:(2.0 +. Rng.float rng 3.0)
              ~beta:(0.5 +. Rng.float rng 2.0)
              ~noise:(0.001 +. Rng.float rng 0.1)
              ~near:(1 + Rng.int rng 3)
              ()
          with
          | Reception.Sinr p -> p
          | Reception.Dual_graph -> assert false
        in
        let field = Sinr.create ~params dual in
        let transmitters =
          Array.of_list
            (List.filter (fun _ -> Rng.bernoulli rng 0.15) (List.init n Fun.id))
        in
        let count = Array.length transmitters in
        if count = 0 then true
        else begin
          Sinr.load_round field ~transmitters ~count;
          let dense = Dense.create ~params dual field in
          Dense.load dense ~transmitters ~count;
          let is_tx = Array.make n false in
          Array.iter (fun v -> is_tx.(v) <- true) transmitters;
          let jam = Array.init n (fun _ -> Rng.bernoulli rng 0.3) in
          let ok = ref true in
          for u = 0 to n - 1 do
            if not is_tx.(u) then begin
              let rr = Dense.receive dense ~jammed:jam.(u) ~listener:u in
              if
                (not (Sinr.column_active field (Sinr.column_of field u)))
                && rr <> -1
              then ok := false
            end
          done;
          let soff = Sinr.slot_off field and snode = Sinr.slot_node field in
          let act, nact = Sinr.active_columns field in
          for a = 0 to nact - 1 do
            let c = act.(a) in
            Sinr.scan_slots field ~column:c ~lo:soff.(c) ~hi:soff.(c + 1);
            for s = soff.(c) to soff.(c + 1) - 1 do
              let u = snode.(s) in
              if not is_tx.(u) then
                if
                  Sinr.verdict field ~jammed:jam.(u) ~slot:s
                  <> Dense.receive dense ~jammed:jam.(u) ~listener:u
                then ok := false
            done
          done;
          !ok
        end);
    Test.make
      ~name:
        "SINR decode cut ≡ frozen dense reference: sparse fields and \
         decode-radius probes, scanned whole and as two slot halves, under \
         random jam flags"
      ~count:150 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 7321) in
        let noise =
          if Rng.bernoulli rng 0.2 then 0.0 else 0.001 +. Rng.float rng 0.099
        in
        let params =
          match
            Reception.sinr
              ~alpha:(2.0 +. Rng.float rng 3.0)
              ~beta:(0.5 +. Rng.float rng 2.0)
              ~noise
              ~near:(1 + Rng.int rng 3)
              ()
          with
          | Reception.Sinr p -> p
          | Reception.Dual_graph -> assert false
        in
        let r = if Rng.bernoulli rng 0.5 then 1.0 else 1.6 in
        (* A sparse field: most listeners lie beyond their column's
           decode radius, so most verdicts come from the cut. *)
        let sparse =
          let n = 20 + Rng.int rng 181 in
          let dual =
            Geo.random_field ~rng ~n ~width:40.0 ~height:40.0 ~r ~gray_g':0.5 ()
          in
          let p = 0.02 +. Rng.float rng 0.13 in
          let transmitters =
            Array.of_list (List.filter (fun _ -> Rng.bernoulli rng p) (List.init n Fun.id))
          in
          let jam = Array.init n (fun _ -> Rng.bernoulli rng 0.3) in
          Array.length transmitters = 0 || cut_agrees ~params dual ~transmitters ~jam
        in
        (* A probe: one transmitter (no far field, so the decode radius
           is R = (P/(beta·noise))^(1/alpha)) and listeners straight
           above and below it at R·(1 ± j/1000), with a row boundary at
           0.995·R above it — where a query that reached short of R
           would miss the decoding listeners beyond the boundary.  At
           noise 0 the radius is infinite and every listener is summed. *)
        let probe =
          let cell = r in
          let rad =
            if noise = 0.0 then 10.0
            else (params.Reception.power /. (params.Reception.beta *. noise))
                 ** (1.0 /. params.Reception.alpha)
          in
          let k = Float.ceil (((2.0 *. rad) +. 2.0) /. cell) in
          let x0 = 0.5 *. cell and y0 = (k *. cell) -. (0.995 *. rad) in
          let probes =
            List.concat_map
              (fun j ->
                let f = float_of_int j /. 1000.0 in
                List.map
                  (fun d -> (x0, y0 +. (d *. rad)))
                  [ 1.0 -. f; 1.0 +. f; -.(1.0 -. f); -.(1.0 +. f) ])
              [ 1; 2; 3; 4; 5; 7; 9; 12 ]
          in
          let pts = Array.of_list (((0.0, 0.0) :: (x0, y0) :: probes)) in
          let dual = points_dual ~r pts in
          let jam = Array.init (Array.length pts) (fun _ -> Rng.bernoulli rng 0.3) in
          cut_agrees ~params dual ~transmitters:[| 1 |] ~jam
        in
        sparse && probe);
    Test.make
      ~name:
        "SINR activation soundness: across successive rounds, no skipped \
         listener ever has an in-band transmitter"
      ~count:40 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 5501) in
        let n = 3 + Rng.int rng 60 in
        let dual =
          Geo.random_field ~rng ~n ~width:9.0 ~height:4.0 ~r:1.0 ~gray_g':0.5 ()
        in
        let params =
          match Reception.sinr ~near:(1 + Rng.int rng 3) () with
          | Reception.Sinr p -> p
          | Reception.Dual_graph -> assert false
        in
        let field = Sinr.create ~params dual in
        let dense = Dense.create ~params dual field in
        let ok = ref true in
        (* Several loads on one field: the activation set (and its mark
           bytes) must track each round's transmitters, not accumulate. *)
        for _ = 1 to 5 do
          let transmitters =
            Array.of_list
              (List.filter
                 (fun _ -> Rng.bernoulli rng 0.08)
                 (List.init n Fun.id))
          in
          let count = Array.length transmitters in
          Sinr.load_round field ~transmitters ~count;
          Dense.load dense ~transmitters ~count;
          for u = 0 to n - 1 do
            let cu = Sinr.column_of field u in
            let in_band =
              Array.exists
                (fun w -> abs (Sinr.column_of field w - cu) <= params.Reception.near)
                transmitters
            in
            (* active ⟺ some transmitter in band; skipped ⟹ reference
               decodes silence *)
            if Sinr.column_active field cu <> in_band then ok := false;
            if
              (not (Sinr.column_active field cu))
              && Dense.receive dense ~jammed:false ~listener:u <> -1
            then ok := false
          done
        done;
        !ok);
  ]

let suite =
  [
    Alcotest.test_case "spec grammar parses and validates" `Quick
      test_spec_parse;
    Alcotest.test_case "spec round-trips through to_spec" `Quick
      test_spec_roundtrip;
    Alcotest.test_case "run_adaptive rejects SINR" `Quick
      test_adaptive_rejects_sinr;
    Alcotest.test_case "SINR requires an embedding" `Quick
      test_sinr_needs_embedding;
    Alcotest.test_case "beta threshold edge decodes on exact equality" `Quick
      test_beta_threshold_edge;
    Alcotest.test_case "jamming is additive noise under SINR" `Quick
      test_jam_is_additive_noise;
    Alcotest.test_case "received power falls monotonically with distance"
      `Quick test_distance_monotonicity;
    Alcotest.test_case "transmitter on a near-band column boundary" `Quick
      test_boundary_column;
    Alcotest.test_case "decode cut guards: underflow and NaN stay silent" `Quick
      test_cut_guards;
    Alcotest.test_case "round kernels allocate nothing at steady state" `Quick
      test_kernel_no_alloc;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
