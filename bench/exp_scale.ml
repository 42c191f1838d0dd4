(* Experiments E21/E24: the tiled engine at scale.  Constant-density
   random fields from n = 10^4 to n = 10^6 with one fixed local
   parameter set (r, transmit p, scheduler p) — so Δ is flat and the
   per-node per-round cost must be flat too.  E21 drives the dual-graph
   reception model (round loop O(n + active edges), never O(n²)); E24
   drives the same curve under SINR physical interference, where the
   output-sensitive kernels must keep the cost proportional to the
   transmitters' footprint rather than to n × cols.  Wall-clock is
   measured around [Tiled.run] (tiles = 1 is the sequential engine,
   with no tiling state or pool; tiles = 2 runs the same round core on
   two domains), resident
   memory is read from /proc/self/status after each run, and a digest
   cross-check asserts on the spot that the 2-tile trace is identical
   to the 1-tile trace. *)

open Core
open Exp_common
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Tiled = Radiosim.Tiled
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Table = Stats.Table
module Clock = Monotonic_clock

let sched_p = 0.02
let r = 1.0

let vm_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
          let kb =
            String.trim (String.sub line 6 (String.length line - 6))
          in
          let kb =
            match String.split_on_char ' ' kb with
            | v :: _ -> float_of_string v
            | [] -> Float.nan
          in
          close_in ic;
          Some (kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file ->
          close_in ic;
          None
    in
    scan ()
  with _ -> None

let make_field ~seed ~n =
  let side = sqrt (float_of_int n) in
  Geo.random_field
    ~rng:(Prng.Rng.of_int seed)
    ~n ~width:side ~height:side ~r ~gray_g':0.5 ()

let make_nodes ~seed ~n ~transmit_p =
  let rng = Prng.Rng.of_int (seed + 1) in
  Array.init n (fun src ->
      Baseline.Uniform.node ~p:transmit_p
        ~message:(M.payload ~src ~uid:0 ())
        ~rng:(Prng.Rng.split rng))

(* FNV-1a over the round's actions and deliveries: a cheap order-
   sensitive digest of the observable trace, used both for the
   tiles=1 vs tiles=2 identity check and as the printed trace hash. *)
let fnv_init = 0xcbf29ce48422325 (* FNV offset basis, truncated to 63-bit *)
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

(* The timed run carries no observer: the digest walks the record's four
   n-sized arrays every round (the engine lends them without copying),
   which is the *instrumentation* cost, not the engine's, and at
   n = 10^6 it dominates.  The trace digest comes from a separate,
   untimed run over identically-seeded state. *)
let timed_run ?reception ~name ~dual ~nodes ~seed ~rounds ~tiles () =
  let scheduler = Sch.bernoulli_sparse ~seed ~p:sched_p in
  let t0 = Clock.now () in
  let executed =
    Tiled.run ?reception ~tiles ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name ())
      ~rounds ()
  in
  let elapsed_ns = Int64.to_float (Int64.sub (Clock.now ()) t0) in
  (executed, elapsed_ns)

let hash_run ?reception ~name ~dual ~nodes ~seed ~rounds ~tiles () =
  let scheduler = Sch.bernoulli_sparse ~seed ~p:sched_p in
  let hash = ref fnv_init in
  let (_ : int) =
    Tiled.run ?reception
      ~observer:(digest_observer hash)
      ~tiles ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name ())
      ~rounds ()
  in
  !hash

(* One size/tiles sweep shared by E21 and E24: time (min of reps),
   digest, assert tiles>1 hashes against tiles=1, emit table rows. *)
let scale_curve ~name ~reception ~transmit_p ~sizes ~table =
  let base_cost = ref None in
  List.iter
    (fun (n, rounds, check_two_tiles) ->
      let seed = master_seed + n in
      let dual = make_field ~seed ~n in
      let tile_counts = if check_two_tiles then [ 1; 2 ] else [ 1 ] in
      let one_tile_hash = ref None in
      List.iter
        (fun tiles ->
          (* Node state is consumed by a run (stateful RNGs), so each
             run — timed or digesting — gets a fresh, identically-seeded
             population. *)
          (* Min of three repetitions: on a time-shared host the minimum
             is the least-interfered estimate of the deterministic cost. *)
          let reps = if !quick then 1 else 3 in
          let best = ref infinity in
          for _ = 1 to reps do
            let executed, elapsed_ns =
              timed_run ?reception ~name ~dual
                ~nodes:(make_nodes ~seed ~n ~transmit_p)
                ~seed ~rounds ~tiles ()
            in
            assert (executed = rounds);
            if elapsed_ns < !best then best := elapsed_ns
          done;
          let per_node = !best /. float_of_int (n * rounds) in
          let rss = vm_rss_mb () in
          let hash =
            hash_run ?reception ~name ~dual
              ~nodes:(make_nodes ~seed ~n ~transmit_p)
              ~seed ~rounds ~tiles ()
          in
          (match (tiles, !one_tile_hash) with
          | 1, _ -> one_tile_hash := Some hash
          | _, Some h when h <> hash ->
              failwith
                (Printf.sprintf
                   "%s: tiles=%d trace hash diverges from tiles=1 at n=%d"
                   name tiles n)
          | _ -> ());
          if tiles = 1 && !base_cost = None then base_cost := Some per_node;
          let vs_base =
            match !base_cost with
            | Some b when b > 0.0 -> Printf.sprintf "%.2fx" (per_node /. b)
            | _ -> "-"
          in
          Table.add_row table
            [
              Table.cell_int n;
              Table.cell_int tiles;
              Table.cell_int rounds;
              Table.cell_float ~decimals:1 per_node;
              vs_base;
              (match rss with
              | Some mb -> Table.cell_float ~decimals:1 mb
              | None -> "n/a");
              Printf.sprintf "%016x" (hash land max_int);
            ])
        tile_counts)
    sizes

let columns =
  [ "n"; "tiles"; "rounds"; "ns/node/round"; "vs smallest"; "RSS MB";
    "trace hash" ]

let run () =
  section "E21: tiled engine at scale — flat per-node per-round cost";
  note
    "Constant-density fields (1 node per unit^2, r=%.1f, transmit\n\
     p=%.2f, bernoulli-sparse scheduler p=%.2f) from 10^4 to 10^6\n\
     nodes.  ns/node/round must stay flat (within 2x) as n grows 100x;\n\
     tiles=2 additionally exercises the halo-exchange path and must\n\
     reproduce the tiles=1 trace hash bit-for-bit."
    r 0.01 sched_p;
  let sizes =
    if !quick then [ (2_000, 10, true) ; (8_000, 10, false) ]
    else [ (10_000, 60, true); (100_000, 30, true); (1_000_000, 24, false) ]
  in
  let table =
    Table.create ~title:"E21: wall-clock and memory per round vs n" ~columns
  in
  scale_curve ~name:"e21" ~reception:None ~transmit_p:0.01 ~sizes ~table;
  Table.print table;
  note
    "Expected: ns/node/round flat within 2x across the full size range\n\
     (the round loop is O(n + active edges) with Δ fixed); tiles=2 rows\n\
     match the tiles=1 trace hash exactly (halo exchange is semantics-\n\
     free); RSS grows linearly in n.\n"

(* E24: the same constant-density curve under SINR physical
   interference.  Transmit p = 2·10^-4 keeps the expected transmitter
   count per round proportional to n (2 at 10^4, 200 at 10^6) while
   staying sparse: the output-sensitive kernels should only ever touch
   the transmitters' footprint (occupied columns, their near bands, and
   the listeners inside), so ns/node/round must stay within a small
   constant of the dual-graph curve even though a dense SINR sweep
   would be O(n·cols) per round.  Tiles=2 is cross-checked at every
   size — including 10^6 — because the SINR scan phase partitions slot
   ranges rather than pushing along edges, a code path E21 never
   exercises. *)
let sinr_params = "sinr:alpha=3,beta=1.2,noise=0.02"

let run_e24 () =
  section "E24: SINR reception at scale — output-sensitive kernels";
  let reception =
    match Radiosim.Reception.of_spec sinr_params with
    | Ok m -> m
    | Error e -> failwith ("E24: bad reception spec: " ^ e)
  in
  note
    "Constant-density fields (1 node per unit^2, r=%.1f, transmit\n\
     p=%.4f, bernoulli-sparse scheduler p=%.2f) from 10^4 to 10^6\n\
     nodes under %s.  The sparse kernels make the\n\
     round cost proportional to the transmitters' footprint, so\n\
     ns/node/round must stay within 3x of E21's dual-graph figure at\n\
     10^6; tiles=2 partitions the SINR scan by slot ranges and must\n\
     reproduce the tiles=1 trace hash bit-for-bit at every size."
    r 0.0002 sched_p sinr_params;
  let sizes =
    if !quick then [ (2_000, 10, true); (8_000, 10, true) ]
    else [ (10_000, 60, true); (100_000, 30, true); (1_000_000, 24, true) ]
  in
  let table =
    Table.create ~title:"E24: SINR wall-clock and memory per round vs n"
      ~columns
  in
  scale_curve ~name:"e24" ~reception:(Some reception) ~transmit_p:0.0002
    ~sizes ~table;
  Table.print table;
  note
    "Expected: ns/node/round flat as n grows 100x and within 3x of the\n\
     E21 dual-graph curve (the active-column scan touches only the\n\
     transmitters' footprint); tiles=2 rows match the tiles=1 trace\n\
     hash exactly at every size (all floats accumulate in grid-column\n\
     order, never tile order); RSS grows linearly in n.\n"
