(* Experiment E18: what the reliability layer buys for global broadcast.

   Two floods of the same message over the same multihop dual graphs:

   - flood-decay: the classical physical-layer construction [2] — every
     node a Strategy.relay with the Decay sweep for a bounded window of
     relay epochs, no acknowledgements;
   - mac-flood: the same logic written over the abstract MAC layer (a
     one-message Serve batch), which keeps retransmitting until the
     reliability guarantee fires.

   On reliable schedules the raw flood is enormously cheaper.  On dual
   graphs with unreliable links switched in, its bounded relay windows
   can be wiped out by contention and coverage stalls — the MAC-layer
   flood pays its polylog overhead and always finishes.  This is the
   paper's value proposition for building the layer at all. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Params = Localcast.Params
module Table = Stats.Table
module Coverage = Localcast.Coverage

(* The raw flood from node 0: Decay relays live for [relay_epochs]
   epochs from acquisition, node streams split in node order from the
   trial seed.  Returns the covered count and, if every node got the
   message, the completion round. *)
let decay_flood ~dual ~scheduler ~seed ~relay_epochs ~max_rounds =
  let n = Dual.n dual in
  let levels = Baseline.Strategy.levels_for ~delta':(Dual.delta' dual) in
  let message = M.payload ~src:0 ~uid:0 () in
  let rng = Prng.Rng.of_int seed in
  let nodes =
    Array.init n (fun v ->
        Baseline.Strategy.relay (Decay { levels })
          ?initial:(if v = 0 then Some message else None)
          ~window:(relay_epochs * levels) ~rng:(Prng.Rng.split rng) ~node:v ())
  in
  let cov = Coverage.create ~n ~source:0 in
  let (_ : int) =
    Radiosim.Engine.run ~observer:(Coverage.observe cov)
      ~stop:(fun _ -> cov.Coverage.covered = n)
      ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name:"flood-decay" ())
      ~rounds:max_rounds ()
  in
  ( cov.Coverage.covered,
    if cov.Coverage.covered = n then
      Some (Array.fold_left max 0 cov.Coverage.first)
    else None )

let run () =
  section "E18: physical-layer flood vs MAC-layer flood (global broadcast)";
  note
    "Line topologies with 2-hop unreliable shortcuts (r=2).  'benign' =\n\
     reliable links only; 'hostile' = every unreliable link switched in\n\
     permanently (maximum standing contention).  relay_epochs = 2 for the\n\
     raw flood.";
  let trials = trials_scaled 10 in
  let table =
    Table.create ~title:"E18: coverage and completion"
      ~columns:
        [ "n"; "scheduler"; "algorithm"; "coverage"; "mean completion" ]
  in
  let sizes = if !quick then [ 8 ] else [ 8; 16; 24 ] in
  List.iter
    (fun n ->
      let dual = Geo.line ~n ~spacing:0.9 ~r:2.0 () in
      let params = Params.of_dual ~eps1:0.1 ~tack_phases:3 dual in
      let mac_budget = 60 * n * params.Params.phase_len in
      let raw_budget = mac_budget in
      List.iter
        (fun (sched_name, scheduler) ->
          (* Both floods share salt n, so each trial pits them against the
             same seed. *)
          let raw_samples =
            run_trials ~salt:n ~n:trials (fun ~trial:_ ~seed ->
                decay_flood ~dual ~scheduler ~seed ~relay_epochs:2
                  ~max_rounds:raw_budget)
          in
          let mac_samples =
            run_trials ~salt:n ~n:trials (fun ~trial:_ ~seed ->
                mac_flood ~params
                  ~rng:(Prng.Rng.of_int seed)
                  ~dual ~scheduler ~source:0 ~max_rounds:mac_budget)
          in
          let fold samples =
            let cov = ref 0 and total = ref 0 in
            let completions = ref [] in
            List.iter
              (fun (c, completion) ->
                cov := !cov + c;
                total := !total + n;
                match completion with
                | Some round -> completions := float_of_int round :: !completions
                | None -> ())
              samples;
            (!cov, !total, !completions)
          in
          let raw_cov, raw_total, raw_completions = fold raw_samples in
          let mac_cov, mac_total, mac_completions = fold mac_samples in
          let mean l = if l = [] then Float.nan else Stats.Summary.mean l in
          Table.add_row table
            [
              Table.cell_int n;
              sched_name;
              "flood-decay";
              Printf.sprintf "%d/%d" raw_cov raw_total;
              Table.cell_float ~decimals:0 (mean raw_completions);
            ];
          Table.add_row table
            [
              Table.cell_int n;
              sched_name;
              "mac-flood";
              Printf.sprintf "%d/%d" mac_cov mac_total;
              Table.cell_float ~decimals:0 (mean mac_completions);
            ])
        [ ("benign", Sch.reliable_only); ("hostile", Sch.all_edges) ])
    sizes;
  Table.print table;
  note
    "Expected: flood-decay is orders of magnitude faster WHEN it covers,\n\
     but its coverage is unreliable: each hop gets one bounded relay\n\
     window with no acknowledgement, so a single unlucky window breaks\n\
     the chain — even on the benign schedule.  (Standing unreliable links\n\
     can even HELP it by adding 2-hop paths — but nothing gives it a\n\
     guarantee.)  The MAC-layer flood pays the t_ack overhead per hop and\n\
     reaches full coverage in every configuration: that guarantee is what\n\
     the local broadcast layer exists to sell.\n"
