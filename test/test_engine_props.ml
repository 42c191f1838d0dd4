(* Property-based tests of the engine's collision semantics: on random
   topologies with random transmission patterns, re-derive every delivery
   from first principles and compare. *)

open Core

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Rng = Prng.Rng

(* One random configuration: topology, Bernoulli scheduler, nodes that
   transmit i.i.d. with probability 0.3.  Returns the recorded trace plus
   everything needed to recheck it. *)
let random_execution seed =
  let rng = Rng.of_int seed in
  let n = 3 + Rng.int rng 25 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.5 ~height:3.5 ~r:1.5 ~gray_g':0.6 ()
  in
  let scheduler = Sch.bernoulli ~seed ~p:0.4 in
  let nodes =
    Array.init n (fun src ->
        let node_rng = Rng.split rng in
        {
          P.decide =
            (fun ~round:_ _ ->
              if Rng.bernoulli node_rng 0.3 then
                P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
              else P.Listen);
          absorb = (fun ~round:_ _ -> []);
        })
  in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Engine.run ~observer ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name:"prop" ())
      ~rounds:30 ()
  in
  (dual, scheduler, trace)

(* Reference model of the collision rule, written independently of the
   engine: u receives m from v iff u listens, v transmits m, and v is the
   only transmitter among u's topology-neighbors this round. *)
let expected_delivery ~dual ~scheduler ~record u =
  match record.Trace.actions.(u) with
  | P.Transmit _ -> None
  | P.Listen ->
      let transmitting =
        Array.map
          (function P.Transmit _ -> true | P.Listen -> false)
          record.Trace.actions
      in
      let counts =
        Oracle.transmitter_counts ~dual ~scheduler ~round:record.Trace.round
          ~transmitting ()
      in
      if counts.(u) <> 1 then None
      else begin
        (* find the unique transmitting topology-neighbor *)
        let result = ref None in
        Array.iter
          (fun v ->
            if transmitting.(v) then
              match record.Trace.actions.(v) with
              | P.Transmit m -> result := Some m
              | P.Listen -> ())
          (Dual.reliable_neighbors dual u);
        Array.iteri
          (fun edge (a, b) ->
            if Sch.active scheduler ~round:record.Trace.round ~edge then begin
              let consider x y =
                if x = u && transmitting.(y) then
                  match record.Trace.actions.(y) with
                  | P.Transmit m -> result := Some m
                  | P.Listen -> ()
              in
              consider a b;
              consider b a
            end)
          (Dual.unreliable_edges dual);
        !result
      end

(* Equivalence of the transmitter-centric engine and the retained
   listener-centric reference resolver: identically-seeded runs must
   produce bit-identical record streams (same actions, deliveries and
   outputs every round) across random duals, schedulers and transmit
   patterns. *)
let scheduler_of_seed seed =
  match seed mod 6 with
  | 0 -> Sch.reliable_only
  | 1 -> Sch.all_edges
  | 2 -> Sch.bernoulli ~seed ~p:0.4
  | 3 -> Sch.edge_phase_flicker ~period:(1 + (seed mod 7))
  | 4 -> Sch.bernoulli_sparse ~seed ~p:0.4
  | _ -> Sch.flicker ~period:4 ~duty:2

let equivalence_execution ~use_reference seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 30 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.5 ~height:3.5 ~r:1.6 ~gray_g':0.5 ()
  in
  let scheduler = scheduler_of_seed seed in
  (* Transmit probability spans sparse to saturated regimes. *)
  let p = [| 0.02; 0.1; 0.3; 0.8 |].(seed mod 4) in
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
  let trace, observer = Trace.recorder () in
  let env = Radiosim.Env.null ~name:"equiv" () in
  let executed =
    if use_reference then
      Oracle.run_reference ~observer ~dual ~scheduler ~nodes ~env ~rounds:25 ()
    else Engine.run ~observer ~dual ~scheduler ~nodes ~env ~rounds:25 ()
  in
  (executed, trace)

let records_equal a b =
  a.Trace.round = b.Trace.round
  && a.Trace.inputs = b.Trace.inputs
  && a.Trace.actions = b.Trace.actions
  && a.Trace.delivered = b.Trace.delivered
  && a.Trace.outputs = b.Trace.outputs

(* Every built-in scheduler, including the ones the trace-identity
   property does not sample (thwart is adversary-shaped but still a
   fixed function of the round). *)
let scheduler_zoo seed =
  [
    Sch.reliable_only;
    Sch.all_edges;
    Sch.bernoulli ~seed ~p:0.3;
    Sch.bernoulli_sparse ~seed ~p:0.3;
    Sch.flicker ~period:5 ~duty:2;
    Sch.edge_phase_flicker ~period:(1 + (seed mod 6));
    Sch.thwart ~hot:(fun r -> ((r * 7) + seed) mod 5 < 2);
  ]

let qcheck_cases =
  let open QCheck in
  [
    Test.make
      ~name:
        "built-in schedulers are oblivious: point queries are repeatable and \
         order-independent, and agree with sparse resolution"
      ~count:40 small_int
      (fun seed ->
        let m = 1 + (seed mod 53) in
        let rng = Rng.of_int (seed + 77) in
        List.for_all
          (fun sch ->
            (* Pseudo-random out-of-order (round, edge) point queries,
               interleaved with whole-round sparse resolutions that
               revisit rounds already queried — an oblivious schedule is
               a pure function of (round, edge), so every answer must be
               identical on the second pass. *)
            let queries =
              List.init 60 (fun _ -> (Rng.int rng 40, Rng.int rng m))
            in
            let ask () =
              List.map
                (fun (round, edge) -> Sch.active sch ~round ~edge)
                queries
            in
            let first = ask () in
            let buf = Array.make m (-1) in
            let sparse_ok =
              List.for_all
                (fun round ->
                  let count = Sch.fill_active_sparse sch ~round ~m buf in
                  if count < 0 || count > m then false
                  else begin
                    let member = Array.make m false in
                    let ok = ref true in
                    for i = 0 to count - 1 do
                      if i > 0 && buf.(i - 1) >= buf.(i) then ok := false;
                      member.(buf.(i)) <- true
                    done;
                    for edge = 0 to m - 1 do
                      if Sch.active sch ~round ~edge <> member.(edge) then
                        ok := false
                    done;
                    !ok
                  end)
                (* out of order, with a repeat *)
                [ 17; 3; 29; 3; 0; 38 ]
            in
            sparse_ok && first = ask ())
          (scheduler_zoo seed));
    Test.make
      ~name:"transmitter-centric engine is trace-identical to the reference"
      ~count:60 small_int
      (fun seed ->
        let fast_n, fast = equivalence_execution ~use_reference:false seed in
        let ref_n, reference = equivalence_execution ~use_reference:true seed in
        fast_n = ref_n
        && Trace.length fast = Trace.length reference
        && begin
             let ok = ref true in
             for i = 0 to Trace.length fast - 1 do
               if not (records_equal (Trace.get fast i) (Trace.get reference i))
               then ok := false
             done;
             !ok
           end);
    Test.make
      ~name:"run_adaptive on a lifted oblivious scheduler matches run"
      ~count:25 small_int
      (fun seed ->
        let run_engine ~adaptive =
          let rng = Rng.of_int seed in
          let n = 2 + Rng.int rng 20 in
          let dual =
            Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.6 ~gray_g':0.5 ()
          in
          let scheduler = Sch.bernoulli ~seed ~p:0.5 in
          let node_rng = Rng.of_int (seed + 1) in
          let nodes =
            Array.init n (fun src ->
                let node_rng = Rng.split node_rng in
                {
                  P.decide =
                    (fun ~round:_ _ ->
                      if Rng.bernoulli node_rng 0.3 then
                        P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
                      else P.Listen);
                  absorb = (fun ~round:_ _ -> []);
                })
          in
          let trace, observer = Trace.recorder () in
          let env = Radiosim.Env.null ~name:"equiv" () in
          let (_ : int) =
            if adaptive then
              Engine.run_adaptive ~observer ~dual
                ~adversary:(Radiosim.Adaptive.of_oblivious scheduler)
                ~nodes ~env ~rounds:20 ()
            else Engine.run ~observer ~dual ~scheduler ~nodes ~env ~rounds:20 ()
          in
          List.init (Trace.length trace) (fun i ->
              let r = Trace.get trace i in
              (r.Trace.actions, r.Trace.delivered))
        in
        run_engine ~adaptive:true = run_engine ~adaptive:false);
    Test.make
      ~name:"fill_active_sparse agrees with active on random schedulers"
      ~count:60 small_int
      (fun seed ->
        let scheduler = scheduler_of_seed seed in
        let m = 1 + (seed mod 97) in
        let buf = Array.make m (-1) in
        let ok = ref true in
        for round = 0 to 14 do
          let count = Sch.fill_active_sparse scheduler ~round ~m buf in
          if count < 0 || count > m then ok := false;
          let member = Array.make m false in
          for i = 0 to count - 1 do
            if i > 0 && buf.(i - 1) >= buf.(i) then ok := false;
            member.(buf.(i)) <- true
          done;
          for edge = 0 to m - 1 do
            if Sch.active scheduler ~round ~edge <> member.(edge) then
              ok := false
          done
        done;
        !ok);
    Test.make ~name:"engine matches the reference collision rule" ~count:40
      small_int
      (fun seed ->
        let dual, scheduler, trace = random_execution seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            for u = 0 to Dual.n dual - 1 do
              let expected = expected_delivery ~dual ~scheduler ~record u in
              if record.Trace.delivered.(u) <> expected then ok := false
            done)
          trace;
        !ok);
    Test.make ~name:"delivered messages were transmitted by a G'-neighbor"
      ~count:40 small_int
      (fun seed ->
        let dual, _, trace = random_execution seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iteri
              (fun u delivered ->
                match delivered with
                | Some (M.Data p) ->
                    let src = p.M.src in
                    let is_neighbor =
                      Array.exists (( = ) src) (Dual.all_neighbors dual u)
                    in
                    let src_transmitted =
                      match record.Trace.actions.(src) with
                      | P.Transmit _ -> true
                      | P.Listen -> false
                    in
                    if not (is_neighbor && src_transmitted) then ok := false
                | Some (M.Seed_msg _) | None -> ())
              record.Trace.delivered)
          trace;
        !ok);
    Test.make ~name:"transmitters never receive" ~count:40 small_int
      (fun seed ->
        let dual, _, trace = random_execution seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iteri
              (fun u action ->
                match (action, record.Trace.delivered.(u)) with
                | P.Transmit _, Some _ -> ok := false
                | _ -> ())
              record.Trace.actions)
          trace;
        ignore dual;
        !ok);
    Test.make ~name:"reliable-only delivery is a lower bound" ~count:25
      small_int
      (fun seed ->
        (* Removing unreliable links can only remove contention from G
           deliveries: any round where a node has exactly one reliable
           transmitting neighbor and no scheduler, it receives. *)
        let dual, _, _ = random_execution seed in
        let n = Dual.n dual in
        let nodes =
          Array.init n (fun src ->
              if src = 0 then P.silent ()
              else
                {
                  P.decide =
                    (fun ~round:_ _ ->
                      if src = 1 then P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
                      else P.Listen);
                  absorb = (fun ~round:_ _ -> []);
                })
        in
        let trace, observer = Trace.recorder () in
        let (_ : int) =
          Engine.run ~observer ~dual ~scheduler:Sch.reliable_only ~nodes
            ~env:(Radiosim.Env.null ~name:"prop" ())
            ~rounds:1 ()
        in
        let record = Trace.get trace 0 in
        let should_receive =
          n > 1 && Array.exists (( = ) 1) (Dual.reliable_neighbors dual 0)
        in
        (record.Trace.delivered.(0) <> None) = should_receive);
  ]

let suite = List.map QCheck_alcotest.to_alcotest qcheck_cases
