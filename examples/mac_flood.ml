(* Composition over the abstract MAC layer: a multi-hop flood.

   The paper's introduction argues that LBAlg can serve as an abstract
   MAC layer implementation, porting the corpus of MAC-layer algorithms
   to the dual graph model.  This example is that composition in action:
   the flood is Macapps.Serve over a one-message batch, written purely
   against Localcast.Mac (bcast / ack / recv events and the f_prog/f_ack
   bounds) and knowing nothing about rounds, collisions or link
   schedulers — yet it completes across a multihop chain whose
   unreliable links flap adversarially.

   Run with:  dune exec examples/mac_flood.exe *)

open Core
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler

let () =
  let table =
    Stats.Table.create ~title:"flood over the abstract MAC layer (line topology)"
      ~columns:[ "hops"; "scheduler"; "covered"; "relays"; "rounds"; "rounds/hop" ]
  in
  let schedulers =
    [ ("reliable-only", fun _ -> Sch.reliable_only);
      ("flapping", fun seed -> Sch.bernoulli ~seed ~p:0.5) ]
  in
  List.iter
    (fun n ->
      (* r = 2: each node also has unreliable links two hops out, which
         the flapping scheduler exploits to create collisions. *)
      let dual = Geo.line ~n ~spacing:0.9 ~r:2.0 () in
      let params = Localcast.Params.of_dual ~eps1:0.1 ~tack_phases:3 dual in
      List.iter
        (fun (name, mk_sched) ->
          let max_rounds = 100 * n * params.Localcast.Params.phase_len in
          let result =
            Macapps.Serve.run
              ~config:(Macapps.Serve.config ~ttl:max_rounds ())
              ~workload:
                (Macapps.Workload.create
                   ~process:(Batch { sources = [ 0 ] })
                   ~n ~seed:0 ())
              ~params ~rng:(Prng.Rng.of_int (n * 37)) ~dual
              ~scheduler:(mk_sched n) ~rounds:max_rounds ()
          in
          (* the completion round, or the whole budget if it ran out *)
          let rounds =
            if result.Macapps.Serve.completed = 1 then
              int_of_float result.Macapps.Serve.delivery_max
            else result.Macapps.Serve.rounds
          in
          Stats.Table.add_row table
            [
              Stats.Table.cell_int (n - 1);
              name;
              Printf.sprintf "%d/%d" result.Macapps.Serve.first_receptions n;
              Stats.Table.cell_int result.Macapps.Serve.relays;
              Stats.Table.cell_int rounds;
              Stats.Table.cell_int (rounds / max 1 (n - 1));
            ])
        schedulers)
    [ 3; 6; 10 ];
  Stats.Table.print table;
  print_endline
    "Completion scales linearly with hop count (O(D · f_ack) shape); the\n\
     application code never mentions links, rounds or collisions."
