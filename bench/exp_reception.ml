(* Experiment E23: reception models — the dual-graph collision rule vs
   SINR physical interference, same algorithm, same embeddings.

   Every row pair runs LBAlg over the *same* random fields, seeds and
   link schedules; only the reception model differs.  Three questions:

   - service guarantees: how do acks, reliability and progress move when
     adversarial edge unreliability is replaced by emergent
     interference?  (The spec monitor stays dual-graph-relative, so its
     "validity" column doubles as a beyond-G' decode counter under SINR:
     a lone transmitter is decodable out to d* = (power/(beta·noise))^
     (1/alpha), past the geographic parameter r.)
   - parameter sensitivity: a harsher decode threshold (beta) or noise
     floor shrinks d* and drowns contended rounds first;
   - determinism at scale: the tiled engine under SINR must reproduce
     the sequential trace hash bit-for-bit at n = 10^4 — the per-column
     aggregation makes the float accumulation order a property of the
     topology, not the tiling.

   The run *fails hard* (nonzero exit) if the dual-graph rows show
   validity violations, if the SINR baseline completes zero acks, or if
   the tiles=1 and tiles=2 SINR trace hashes diverge — this is the CI
   smoke for the reception subsystem. *)

open Core
open Exp_common
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Tiled = Radiosim.Tiled
module Trace = Radiosim.Trace
module Reception = Radiosim.Reception
module P = Radiosim.Process
module M = Localcast.Messages
module Params = Localcast.Params
module L = Localcast
module Table = Stats.Table

let models () =
  [
    ("dual-graph", Reception.dual_graph);
    ("sinr (defaults)", Reception.sinr ());
    ("sinr beta=3", Reception.sinr ~beta:3.0 ());
    ("sinr noise=0.1", Reception.sinr ~noise:0.1 ());
  ]

(* --- saturated service comparison --- *)

let saturation () =
  let trials = trials_scaled 8 in
  let phases = 6 in
  let n = if !quick then 24 else 40 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E23a: saturated LBAlg, same fields and seeds (n=%d, 3 senders, %d \
            phases)"
           n phases)
      ~columns:
        [
          "reception"; "acks"; "late"; "missing"; "progress fail freq";
          "validity viol";
        ]
  in
  let failures = ref [] in
  List.iter
    (fun (label, reception) ->
      (* Same salt for every model: paired topologies and seeds. *)
      let samples =
        run_trials ~n:trials (fun ~trial:_ ~seed ->
            let dual = random_field ~seed ~n () in
            let params = Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
            let outcome =
              L.Service.run ~reception ~dual ~params
                ~senders:[ 0; n / 3; 2 * n / 3 ]
                ~phases ~seed ()
            in
            let r = outcome.L.Service.report in
            ( r.L.Lb_spec.ack_count,
              r.L.Lb_spec.late_ack_count,
              r.L.Lb_spec.missing_ack_count,
              r.L.Lb_spec.progress_opportunities,
              r.L.Lb_spec.progress_failures,
              r.L.Lb_spec.validity_violations ))
      in
      let acks = ref 0 and late = ref 0 and missing = ref 0 in
      let opps = ref 0 and fails = ref 0 and validity = ref 0 in
      List.iter
        (fun (a, l, m, o, f, v) ->
          acks := !acks + a;
          late := !late + l;
          missing := !missing + m;
          opps := !opps + o;
          fails := !fails + f;
          validity := !validity + v)
        samples;
      Table.add_row table
        [
          label;
          Table.cell_int !acks;
          Table.cell_int !late;
          Table.cell_int !missing;
          Table.cell_float ~decimals:4
            (float_of_int !fails /. float_of_int (max 1 !opps));
          Table.cell_int !validity;
        ];
      if label = "dual-graph" && !validity > 0 then
        failures :=
          Printf.sprintf "dual-graph rows must audit clean, got %d validity \
                          violations" !validity
          :: !failures;
      if label = "sinr (defaults)" && !acks = 0 then
        failures := "SINR baseline completed zero acks" :: !failures)
    (models ());
  Table.print table;
  note
    "The spec monitor is dual-graph-relative: under SINR, 'validity'\n\
     counts decodes from beyond-G' transmitters (physically real — a\n\
     lone transmitter carries past r), not soundness bugs.\n";
  !failures

(* --- one-shot reliability on a shared field --- *)

let one_shot () =
  let trials = trials_scaled 8 in
  let n = if !quick then 24 else 40 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E23b: one-shot bcast from node 0, same fields and seeds (n=%d)" n)
      ~columns:[ "reception"; "reliability"; "mean completion"; "incomplete" ]
  in
  List.iter
    (fun (label, reception) ->
      let samples =
        run_trials ~n:trials (fun ~trial:_ ~seed ->
            let dual = random_field ~seed ~n () in
            let params = Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
            let outcome, _, completion =
              L.Service.one_shot ~reception ~dual ~params ~sender:0 ~seed ()
            in
            let r = outcome.L.Service.report in
            ( r.L.Lb_spec.reliability_attempts,
              r.L.Lb_spec.reliability_failures,
              completion ))
      in
      let attempts = ref 0 and fails = ref 0 in
      let completions = ref [] and incomplete = ref 0 in
      List.iter
        (fun (a, f, completion) ->
          attempts := !attempts + a;
          fails := !fails + f;
          match completion with
          | Some round -> completions := float_of_int round :: !completions
          | None -> incr incomplete)
        samples;
      let mean =
        if !completions = [] then Float.nan
        else Stats.Summary.mean !completions
      in
      Table.add_row table
        [
          label;
          Printf.sprintf "%d/%d" (!attempts - !fails) !attempts;
          Table.cell_float ~decimals:0 mean;
          Table.cell_int !incomplete;
        ])
    (models ());
  Table.print table;
  note
    "Completion = round the last reliable neighbor first received.\n\
     Under SINR the ack discipline rides interference rather than\n\
     adversarial edge choice; harsher beta/noise delays completion.\n"

(* --- determinism at scale: SINR trace hash, tiles 1 vs 2 --- *)

let fnv_init = 0xcbf29ce48422325
let fnv h x = (h lxor x) * 0x100000001b3

let digest_observer acc record =
  let h = ref (fnv !acc record.Trace.round) in
  Array.iter
    (fun a ->
      h :=
        fnv !h
          (match a with
          | P.Transmit (M.Data p) -> 3 + p.M.src
          | P.Transmit _ -> 2
          | P.Listen -> 1))
    record.Trace.actions;
  Array.iter
    (fun d ->
      h :=
        fnv !h
          (match d with
          | Some (M.Data p) -> 3 + p.M.src
          | Some _ -> 2
          | None -> 1))
    record.Trace.delivered;
  acc := !h

let scale_hash () =
  let n = if !quick then 2_000 else 10_000 in
  let rounds = if !quick then 10 else 24 in
  let seed = master_seed + 23 in
  let side = sqrt (float_of_int n) in
  let dual =
    Geo.random_field
      ~rng:(Prng.Rng.of_int seed)
      ~n ~width:side ~height:side ~r:1.0 ~gray_g':0.5 ()
  in
  let reception = Reception.sinr ~alpha:3.0 ~beta:1.2 ~noise:0.02 () in
  let run tiles =
    let rng = Prng.Rng.of_int (seed + 1) in
    let nodes =
      Array.init n (fun src ->
          Baseline.Uniform.node ~p:0.01
            ~message:(M.payload ~src ~uid:0 ())
            ~rng:(Prng.Rng.split rng))
    in
    let hash = ref fnv_init in
    let (_ : int) =
      Tiled.run
        ~observer:(digest_observer hash)
        ~reception ~tiles ~dual
        ~scheduler:(Sch.bernoulli_sparse ~seed ~p:0.02)
        ~nodes
        ~env:(Radiosim.Env.null ~name:"e23" ())
        ~rounds ()
    in
    !hash
  in
  let h1 = run 1 and h2 = run 2 in
  let table =
    Table.create
      ~title:"E23c: SINR trace determinism across tilings"
      ~columns:[ "n"; "rounds"; "tiles"; "trace hash" ]
  in
  Table.add_row table
    [ Table.cell_int n; Table.cell_int rounds; "1"; Printf.sprintf "%016x" h1 ];
  Table.add_row table
    [ Table.cell_int n; Table.cell_int rounds; "2"; Printf.sprintf "%016x" h2 ];
  Table.print table;
  if h1 <> h2 then
    [ Printf.sprintf "SINR tiles=1 vs tiles=2 trace hash mismatch \
                      (%016x vs %016x)" h1 h2 ]
  else begin
    note "Hashes match: the tiling never shows in the SINR trace.\n";
    []
  end

let run () =
  section "E23: reception models — dual-graph vs SINR on the same embeddings";
  let failures = saturation () in
  one_shot ();
  let failures = failures @ scale_hash () in
  match failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Printf.eprintf "E23 FAILURE: %s\n%!" f) fs;
      failwith "E23: reception-model smoke failed"
