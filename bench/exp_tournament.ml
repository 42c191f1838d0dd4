(* Experiment E25: the back-off strategy tournament under the full
   adversary zoo.

   Every cell is (topology × adversary × fault plan × arm): one
   broadcast relayed under a contention strategy — or served by LBAlg —
   with the cell semantics fixed in Baseline.Tournament (experiment
   E20's eligibility and censoring rules).  The matrix sweeps

     topology    clique(12), random geometric field (n=36, E20's), line(16)
     adversary   Bernoulli(1/2), decay-thwarting oblivious, adaptive jam
     fault plan  none, permanent crashes, jam windows, crash/restart churn
     arm         fixed, decay, decay-restart, sawtooth, backoff,
                 slotted, lbalg

   and reports one ranked table per metric (coverage, first-reception
   latency, transmission cost): arms are ranked inside every arena by
   their per-trial means, and an arm's overall score is the bootstrap CI
   of its rank across arenas — scale-free, so clique latencies and line
   latencies aggregate without unit games.  Trials are paired: inside an
   arena every arm sees the same per-trial seeds, link schedules and
   fault plans, and each arena's salt is a pure function of its axis
   names, so any sub-matrix (quick mode, the CI smoke, the CLI) runs on
   the same streams as the full sweep.

   The churn column doubles as the regression anchor for E20: on the
   pinned master seed the random-field Bernoulli churn cell must rank
   LBAlg's coverage strictly above fixed-budget Decay's, and Decay's
   churn coverage must fall below its fault-free coverage.  Violations
   raise — the CI quick-mode smoke hard-fails on an ordering
   inversion. *)

open Core
open Exp_common
module Plan = Faults.Plan
module T = Baseline.Tournament
module Strategy = Baseline.Strategy
module Rank = Stats.Rank
module Table = Stats.Table

let sender = 0

(* --- the matrix axes (fixed names: they key the per-arena salts) --- *)

let topo_names = [ "clique"; "rgg"; "line" ]
let adv_names = [ "bern"; "thwart"; "adaptive" ]
let fault_names = [ "none"; "crash"; "jam"; "churn" ]

let topology = function
  | "clique" -> Geo.clique 12
  (* E20's exact field, so the churn anchor cell is E20's setup verbatim. *)
  | "rgg" -> random_field ~seed:(master_seed + 20) ~n:36 ()
  | "line" -> Geo.line ~n:16 ()
  | t -> invalid_arg ("unknown topology " ^ t)

let adversary dual = function
  | "bern" -> T.Oblivious (fun ~seed -> Sch.bernoulli ~seed ~p:0.5)
  | "thwart" ->
      let levels = Strategy.levels_for ~delta':(Dual.delta' dual) in
      let hot_levels =
        max 1
          (Baseline.Decay.hot_levels_against ~levels
             ~contention:(Dual.delta' dual))
      in
      T.Oblivious
        (fun ~seed:_ ->
          Sch.thwart ~hot:(Baseline.Decay.hot_predicate ~levels ~hot_levels))
  | "adaptive" -> T.Adaptive_jam
  | a -> invalid_arg ("unknown adversary " ^ a)

(* Seed-derived jam plan: every non-sender node is a victim with
   probability 0.3, jammed for the middle half of the horizon.  Per-node
   streams (never a shared sequential draw) keep the plan independent of
   iteration order, like Plan.churn's. *)
let jam_plan ~n ~horizon ~seed =
  let from = horizon / 4 and until = max ((horizon / 4) + 1) (3 * horizon / 4) in
  let jams = ref [] in
  for v = 0 to n - 1 do
    if v <> sender then begin
      let rng =
        Prng.Rng.create
          (Prng.Rng.mix
             Int64.(
               add
                 (mul (of_int seed) 0x9E3779B97F4A7C15L)
                 (mul (of_int (v + 1)) 0xD6E8FEB86659FD93L)))
      in
      if Prng.Rng.bernoulli rng 0.3 then jams := (v, from, until) :: !jams
    end
  done;
  Plan.make ~n ~jams:!jams ()

let fault_plan (a : T.arena) = function
  | "none" -> None
  | "crash" ->
      (* Permanent crashes: the per-round hazard is sized so ~30% of the
         population is gone by the horizon (a dead node is ineligible,
         so the cell measures coverage of the remaining 70% as relays
         vanish mid-run). *)
      let rate = 1.0 -. (0.7 ** (1.0 /. float_of_int a.T.horizon)) in
      Some
        (fun ~seed ->
          Plan.churn ~seed ~n:(Dual.n a.T.dual) ~rounds:a.T.horizon ~rate
            ~protect:[ sender ] ())
  | "jam" ->
      Some (fun ~seed -> jam_plan ~n:(Dual.n a.T.dual) ~horizon:a.T.horizon ~seed)
  | "churn" ->
      Some
        (fun ~seed ->
          Plan.churn ~seed ~n:(Dual.n a.T.dual) ~rounds:a.T.horizon ~rate:0.05
            ~downtime:a.T.budget ~protect:[ sender ] ())
  | f -> invalid_arg ("unknown fault plan " ^ f)

(* The arena salt is a pure function of the axis names so every
   sub-matrix runs on the full sweep's streams. *)
let cell_salt ~topo ~adv ~fault =
  let idx names x =
    let rec go i = function
      | [] -> invalid_arg ("unknown axis value " ^ x)
      | y :: _ when y = x -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 names
  in
  2500 + (idx topo_names topo * 16) + (idx adv_names adv * 4)
  + idx fault_names fault

type cell = {
  topo : string;
  adv : string;
  fault : string;
  arena : T.arena;
  (* per arm label: per-trial samples, eligible trials only *)
  mutable results : (string * T.sample list) list;
}

let make_cell ~topo ~adv ~fault =
  let dual = topology topo in
  let base = T.arena ~sender ~adversary:(adversary dual adv) ~dual () in
  let arena = { base with T.plan_of = fault_plan base fault } in
  { topo; adv; fault; arena; results = [] }

let run_cell ~trials cell =
  let arms = T.arms ~dual:cell.arena.T.dual in
  let per_trial =
    run_trials
      ~salt:(cell_salt ~topo:cell.topo ~adv:cell.adv ~fault:cell.fault)
      ~n:trials
      (fun ~trial:_ ~seed ->
        List.map (fun arm -> T.trial cell.arena arm ~seed) arms)
  in
  cell.results <-
    List.mapi
      (fun j arm ->
        ( T.arm_label arm,
          List.filter_map (fun row -> List.nth row j) per_trial ))
      arms

(* --- aggregation: rank arms inside each arena, bootstrap across --- *)

type metric = { label : string; descending : bool; get : T.sample -> float }

let metrics =
  [
    { label = "coverage"; descending = true; get = (fun s -> s.T.coverage) };
    { label = "latency"; descending = false; get = (fun s -> s.T.latency) };
    { label = "tx cost"; descending = false; get = (fun s -> s.T.cost) };
  ]

let metric_seed m =
  master_seed
  + (match m.label with "coverage" -> 251 | "latency" -> 257 | _ -> 263)

(* Competition ranks of the cell's arms under one metric; arms with no
   eligible trial are absent. *)
let cell_ranks m cell =
  let cells =
    List.filter_map
      (fun (label, samples) ->
        match samples with
        | [] -> None
        | _ -> Some (label, Array.of_list (List.map m.get samples)))
      cell.results
  in
  match cells with
  | [] -> []
  | _ ->
      List.map
        (fun (r : Rank.row) -> (r.Rank.label, float_of_int r.Rank.rank))
        (Rank.table ~descending:m.descending ~tie_eps:1e-9
           ~seed:(metric_seed m) cells)

let mean_samples label cell m =
  match List.assoc_opt label cell.results with
  | None | Some [] -> None
  | Some samples ->
      Some
        (Stats.Summary.mean (List.map m.get samples))

let fmt_ci (ci : Rank.ci) =
  Printf.sprintf "%.2f [%.2f, %.2f]" ci.Rank.mean ci.Rank.lower ci.Rank.upper

let ranked_table m cells =
  (* label -> (fault name -> rank list), insertion-ordered by arm *)
  let by_arm : (string * (string * float) list ref) list ref = ref [] in
  let note_rank label fault rank =
    let bucket =
      match List.assoc_opt label !by_arm with
      | Some b -> b
      | None ->
          let b = ref [] in
          by_arm := !by_arm @ [ (label, b) ];
          b
    in
    bucket := (fault, rank) :: !bucket
  in
  List.iter
    (fun cell ->
      List.iter (fun (label, rank) -> note_rank label cell.fault rank)
        (cell_ranks m cell))
    cells;
  let overall =
    List.map
      (fun (label, bucket) ->
        (label, Array.of_list (List.map snd !bucket)))
      !by_arm
  in
  let rows =
    Rank.table ~descending:false ~tie_eps:0.05 ~seed:(metric_seed m) overall
  in
  let faults_present =
    List.filter (fun f -> List.exists (fun c -> c.fault = f) cells) fault_names
  in
  let table =
    Table.create
      ~title:(Printf.sprintf "E25: arms ranked by %s (rank 1 is best)" m.label)
      ~columns:
        ([ "rank"; "arm"; "arenas"; "mean rank [95% CI]" ]
        @ List.map (fun f -> f ^ " rank") faults_present)
  in
  List.iter
    (fun (r : Rank.row) ->
      let bucket = !(List.assoc r.Rank.label !by_arm) in
      let fault_cells =
        List.map
          (fun f ->
            match
              List.filter_map
                (fun (fault, rank) -> if fault = f then Some rank else None)
                bucket
            with
            | [] -> "-"
            | ranks ->
                Table.cell_float ~decimals:2 (Stats.Summary.mean ranks))
          faults_present
      in
      Table.add_row table
        ([
           Table.cell_int r.Rank.rank;
           r.Rank.label;
           Table.cell_int r.Rank.count;
           fmt_ci r.Rank.ci;
         ]
        @ fault_cells))
    rows;
  Table.print table

(* --- the E20 regression anchor: the rgg × bern × churn cell --- *)

let anchor_detail cells =
  let anchor =
    List.find
      (fun c -> c.topo = "rgg" && c.adv = "bern" && c.fault = "churn")
      cells
  in
  let table =
    Table.create
      ~title:
        "E25 anchor cell (rgg × bern × churn 0.05): per-arm detail, \
         bootstrap 95% CIs over trials"
      ~columns:[ "arm"; "trials"; "coverage"; "latency"; "tx cost" ]
  in
  List.iter
    (fun (label, samples) ->
      match samples with
      | [] -> ()
      | _ ->
          let col m =
            fmt_ci
              (Rank.bootstrap ~seed:(metric_seed m)
                 (Array.of_list (List.map m.get samples)))
          in
          Table.add_row table
            ([ label; Table.cell_int (List.length samples) ]
            @ List.map col metrics))
    anchor.results;
  Table.print table;
  let coverage = List.nth metrics 0 in
  let mean_of label =
    match mean_samples label anchor coverage with
    | Some m -> m
    | None -> failwith ("E25 anchor cell: no samples for " ^ label)
  in
  let lbalg = mean_of "lbalg" and decay = mean_of "decay" in
  if not (lbalg > decay) then
    failwith
      (Printf.sprintf
         "E25 ordering inversion: churn-cell coverage lbalg %.4f <= decay \
          %.4f (expected LBAlg > Decay, the E20 collapse)"
         lbalg decay);
  let fault_free =
    List.find
      (fun c -> c.topo = "rgg" && c.adv = "bern" && c.fault = "none")
      cells
  in
  let decay_clean =
    match mean_samples "decay" fault_free coverage with
    | Some m -> m
    | None -> failwith "E25 fault-free cell: no decay samples"
  in
  if not (decay < decay_clean) then
    failwith
      (Printf.sprintf
         "E25 ordering inversion: decay coverage did not degrade under \
          churn (%.4f under churn vs %.4f fault-free)"
         decay decay_clean);
  note
    "Anchor checks passed: lbalg churn coverage %.3f > decay %.3f, and\n\
     decay degrades from its fault-free %.3f — E20's collapse, reproduced\n\
     as one matrix cell."
    lbalg decay decay_clean

let run () =
  section "E25: back-off strategy tournament under the adversary zoo";
  let matrix =
    if !quick then
      (* The smoke sub-matrix always contains the anchor cells. *)
      [ ("rgg", "bern"); ("rgg", "adaptive") ]
      |> List.concat_map (fun (topo, adv) ->
             List.filter_map
               (fun fault ->
                 if adv = "adaptive" && fault <> "none" then None
                 else Some (topo, adv, fault))
               [ "none"; "churn" ])
    else
      List.concat_map
        (fun topo ->
          List.concat_map
            (fun adv -> List.map (fun fault -> (topo, adv, fault)) fault_names)
            adv_names)
        topo_names
  in
  let cells =
    List.map (fun (topo, adv, fault) -> make_cell ~topo ~adv ~fault) matrix
  in
  let trials = trials_scaled 8 in
  (* The two anchor cells carry hard ordering assertions on the pinned
     master seed, so they always get a statistically safe trial floor —
     quick mode included (the CI smoke runs exactly this). *)
  let trials_for cell =
    if cell.topo = "rgg" && cell.adv = "bern"
       && (cell.fault = "churn" || cell.fault = "none")
    then max trials 16
    else trials
  in
  note
    "%d arenas × 7 arms × %d paired trials (anchor cells: %d); arms:\n\
     fixed, decay, decay-restart, sawtooth, backoff, slotted (all relays\n\
     inside a one-phase broadcast window, E20's discipline) and lbalg\n\
     (skipped under the adaptive-jam adversary, which the paper's model\n\
     excludes).  Ranks are per-arena; the CI is a seeded bootstrap over\n\
     arenas."
    (List.length cells) trials (max trials 16);
  List.iter (fun cell -> run_cell ~trials:(trials_for cell) cell) cells;
  List.iter (fun m -> ranked_table m cells) metrics;
  anchor_detail cells
