module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph
module Tile = Dualgraph.Tile

type source = Oblivious of Scheduler.t | Adaptive of Adaptive.t

(* Growable flat int buffer — transmitter lists, touched-listener lists
   and halo outboxes all reuse it round to round, so steady-state rounds
   allocate nothing for bookkeeping. *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf_make cap = { data = Array.make cap 0; len = 0 }

let ibuf_grow b =
  let d = Array.make (max 16 (2 * Array.length b.data)) 0 in
  Array.blit b.data 0 d 0 b.len;
  b.data <- d

(* Inlined: the hot loops append once per transmitter and per listener
   reached. *)
let[@inline] ibuf_push b x =
  if b.len = Array.length b.data then ibuf_grow b;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

(* Folds one transmission from [src] into listener [w]'s reception
   accumulator (-1 nothing heard, >= 0 the one transmitter heard so far,
   -2 collided), noting [w] in [touched] on its first reception.
   Inlined: the push runs it once per (transmitter, neighbor) pair. *)
let[@inline] fold heard touched w src =
  let cur = Array.unsafe_get heard w in
  if cur = -1 then begin
    Array.unsafe_set heard w src;
    ibuf_push touched w
  end
  else if cur <> -2 then Array.unsafe_set heard w (-2)

(* The one round loop.  Each round runs decide -> resolve -> absorb once
   per tile, and the coordinator (the calling domain) serializes
   everything between phases — fault transitions, the round's
   activation marks, events, notify, records — in ascending node order,
   so the tiling never shows in a trace.  At one tile there is no tiling
   state and no pool: tile 0 owns every node, member [idx] is node
   [idx], and every phase is a direct call.  See tiled.mli and DESIGN.md
   §10 for the determinism argument. *)
let run ~who ~tiles ~source ?observer ?stop ?sink ?metrics ?faults ?revive
    ?(reception = Reception.dual_graph) ~dual ~nodes ~env ~rounds () =
  let n = Dual.n dual in
  (* The reception model is fixed for the whole run.  Sinr swaps only
     the resolve phase; everything else is shared. *)
  let sinr_field =
    match reception with
    | Reception.Dual_graph -> None
    | Reception.Sinr p -> Some (Sinr.create ~params:p dual)
  in
  (* Under the dual-graph model a jam window suppresses the victim's
     transmission; under SINR it is additive noise at the victim's
     receiver instead — the jammer cannot silence a physical radio, only
     drown what it hears. *)
  let jam_suppresses = Option.is_none sinr_field in
  if Array.length nodes <> n then
    invalid_arg (who ^ ": node array size differs from vertex count");
  if rounds < 0 then invalid_arg (who ^ ": negative round count");
  (match faults with
  | Some plan when Faults.Plan.n plan <> n ->
      invalid_arg (who ^ ": fault plan node count differs from vertex count")
  | _ -> ());
  let owner, members =
    if tiles <= 1 then ([||], [| [||] |])
    else
      let tile = Tile.of_dual ~tiles dual in
      ( Array.init n (Tile.owner tile),
        Array.init (Tile.tiles tile) (Tile.members tile) )
  in
  let k = Array.length members in
  let one = k = 1 in
  (* Restarts swap processes in place; work on a copy so the caller's
     node array survives the run. *)
  let nodes = match faults with None -> nodes | Some _ -> Array.copy nodes in
  let dead = Bytes.make n '\000' in
  let fault_cursor = Option.map Faults.Plan.cursor faults in
  (* Liveness closures: one indirect call per node per round when a plan
     is attached, a constant-false closure otherwise. *)
  let is_dead =
    match faults with
    | None -> fun _ -> false
    | Some _ -> fun v -> Bytes.unsafe_get dead v = '\001'
  in
  let round = ref 0 in
  let has_jams =
    match faults with Some plan -> Faults.Plan.has_jams plan | None -> false
  in
  let jammed =
    match faults with
    | Some plan when has_jams ->
        fun v -> Faults.Plan.jammed plan ~node:v ~round:!round
    | _ -> fun _ -> false
  in
  let g_off = Graph.csr_offsets (Dual.g dual) in
  let g_adj = Graph.csr_neighbors (Dual.g dual) in
  let m = Dual.unreliable_count dual in
  let inc_off, inc_nbr, inc_edge = Dual.unreliable_incidence_csr dual in
  (* The activation source writes the round's active unreliable-edge
     indices (ascending) into [sparse] and returns their count; an
     oblivious scheduler ignores the transmission vector, an adaptive
     adversary rules on every edge after seeing it.  [resolved_of count]
     is the number of per-edge resolutions that took — it only feeds
     [scheduler.edges_resolved]. *)
  let fill_sparse, resolved_of =
    match source with
    | Oblivious s ->
        ( (fun ~round ~transmitting:_ buf ->
            Scheduler.fill_active_sparse s ~round ~m buf),
          fun count -> if Scheduler.resolves_sparsely s then count else m )
    | Adaptive a ->
        ( (fun ~round ~transmitting buf ->
            let c = ref 0 in
            for edge = 0 to m - 1 do
              if Adaptive.choose a ~round ~transmitting ~edge then begin
                Array.unsafe_set buf !c edge;
                incr c
              end
            done;
            !c),
          fun _ -> m )
  in
  (* How the push asks whether an unreliable edge is up, chosen once per
     run: it walks each transmitter's incident edges either way.  A
     scheduler that resolves every edge anyway
     ({!Scheduler.resolves_sparsely} false) is asked per edge, which
     costs O(T·Δ') instead of O(m).  Natively sparse schedulers and
     adaptive adversaries fill the round's activation set in one batch
     instead; the coordinator marks it in [marks] for the duration of
     the push.  [sparse] holds that set, and also feeds a metered
     per-edge run's counters, which fill it only to describe the full
     activation set. *)
  let batch =
    match source with
    | Oblivious s -> Scheduler.resolves_sparsely s
    | Adaptive _ -> true
  in
  let marks = Bytes.make (if batch then m else 0) '\000' in
  let active =
    match source with
    | Oblivious s when not batch -> Scheduler.active s
    | Oblivious _ | Adaptive _ ->
        fun ~round:_ ~edge -> Bytes.unsafe_get marks edge = '\001'
  in
  let sparse =
    Array.make (if batch || Option.is_some metrics then max m 1 else 0) 0
  in
  let set_marks count c =
    for j = 0 to count - 1 do
      Bytes.unsafe_set marks (Array.unsafe_get sparse j) c
    done
  in
  let ctr_active, ctr_resolved =
    match metrics with
    | None -> (None, None)
    | Some reg ->
        ( Some (Obs.Metrics.counter reg "engine.active_edges"),
          Some (Obs.Metrics.counter reg "scheduler.edges_resolved") )
  in
  let count_active count =
    match ctr_active with
    | None -> ()
    | Some c ->
        Obs.Metrics.incr ~by:count c;
        Option.iter (Obs.Metrics.incr ~by:(resolved_of count)) ctr_resolved
  in
  let ctr_crash, ctr_restart, ctr_jam =
    match (metrics, faults) with
    | Some reg, Some _ ->
        ( Some (Obs.Metrics.counter reg "faults.crashes"),
          Some (Obs.Metrics.counter reg "faults.restarts"),
          Some (Obs.Metrics.counter reg "faults.jams") )
    | _ -> (None, None, None)
  in
  let count_listener_jams = has_jams && ctr_jam <> None in
  (* Per-listener reception accumulator (see [fold]).  A slot is
     written only by the listener's owning tile (foreign transmissions
     arrive through the outboxes), so the phases are race-free by
     ownership; the push notes every slot it sets in the tile's touched
     list, and the SINR scan sets slots only inside the round's active
     columns, so the reset after the round is output-sensitive either
     way.  [said.(v)] is transmitter v's [Some msg], allocated once per
     transmission, shared by every listener that receives it and
     cleared after the round so no message outlives it. *)
  let heard = Array.make n (-1) in
  let said = Array.make n None in
  let transmitting = Array.make n false in
  (* A tile's transmitter and touched lists never outgrow its member
     count, so they are sized once; outboxes start empty and grow. *)
  let size i = if one then n else Array.length members.(i) in
  let tx = Array.init k (fun i -> ibuf_make (size i)) in
  let touched = Array.init k (fun i -> ibuf_make (size i)) in
  let outbox = Array.init k (fun _ -> Array.init k (fun _ -> ibuf_make 0)) in
  let on_air = ibuf_make 0 in
  let jam_hits = Array.make k 0 in
  (* The per-round arrays are allocated once per run: every slot is
     rewritten each round, and a round record only lends them to
     [observer] and [stop] for the duration of the call
     ([Trace.recorder] copies them). *)
  let inputs = Array.make n [] in
  let actions = Array.make n Process.Listen in
  let delivered = Array.make n None in
  let outputs = Array.make n [] in
  (* Tiles poll their own members' inputs, all of them before the first
     decide; a stateful environment on several tiles is polled by the
     coordinator instead, in the same ascending order. *)
  let tiles_poll = one || env.Env.pure_inputs in
  (* Polls nodes [mem.(0 .. len-1)], or [0 .. len-1] when [ident]. *)
  let poll ~ident mem len =
    let t = !round in
    for idx = 0 to len - 1 do
      let v = if ident then idx else Array.unsafe_get mem idx in
      inputs.(v) <- (if is_dead v then [] else env.Env.inputs ~round:t ~node:v)
    done
  in
  (* Decide: a dead node is invisible to its environment and its process
     is not stepped; a jammed transmitter (dual-graph model) is charged
     for its decision but taken off the air. *)
  let phase_decide i =
    let t = !round in
    let mem = members.(i) and len = size i in
    if tiles_poll then poll ~ident:one mem len;
    let txb = tx.(i) in
    txb.len <- 0;
    let jams = ref 0 in
    for idx = 0 to len - 1 do
      let v = if one then idx else Array.unsafe_get mem idx in
      if is_dead v then begin
        actions.(v) <- Process.Listen;
        Array.unsafe_set transmitting v false
      end
      else
        let a = nodes.(v).Process.decide ~round:t inputs.(v) in
        actions.(v) <- a;
        match a with
        | Process.Transmit msg when not (jam_suppresses && jammed v) ->
            Array.unsafe_set transmitting v true;
            Array.unsafe_set said v (Some msg);
            ibuf_push txb v
        | Process.Transmit _ ->
            incr jams;
            Array.unsafe_set transmitting v false
        | Process.Listen -> Array.unsafe_set transmitting v false
    done;
    jam_hits.(i) <- !jams
  in
  (* Resolve, dual-graph model: each tile's transmitters push along their
     reliable CSR slice and those incident unreliable edges [active]
     admits.  Receptions of the tile's own listeners land in [heard];
     foreign ones go to the (source, destination) outbox — the halo
     exchange. *)
  let phase_push i =
    let t = !round in
    let txb = tx.(i) and tb = touched.(i) in
    let send w v =
      let b = outbox.(i).(owner.(w)) in
      ibuf_push b w;
      ibuf_push b v
    in
    for idx = 0 to txb.len - 1 do
      let v = Array.unsafe_get txb.data idx in
      for j = Array.unsafe_get g_off v to Array.unsafe_get g_off (v + 1) - 1 do
        let w = Array.unsafe_get g_adj j in
        if one || Array.unsafe_get owner w = i then fold heard tb w v
        else send w v
      done;
      for j = Array.unsafe_get inc_off v to Array.unsafe_get inc_off (v + 1) - 1 do
        if active ~round:t ~edge:(Array.unsafe_get inc_edge j) then begin
          let w = Array.unsafe_get inc_nbr j in
          if one || Array.unsafe_get owner w = i then fold heard tb w v
          else send w v
        end
      done
    done
  in
  (* Resolve, SINR model: tile i owns slots [i·n/k, (i+1)·n/k) of the
     field's column-major listener CSR (the ranking Tile stripes by) and
     scans the part of each active column inside it.  Every listener's
     outcome is a pure function of the loaded transmitter set, so the
     split cannot show.  [faults.jams] charges every jammed alive
     listener of a contended round, in band or not. *)
  let phase_sinr i =
    match sinr_field with
    | None -> ()
    | Some f ->
        let slo = i * n / k and shi = (i + 1) * n / k in
        let soff = Sinr.slot_off f and snode = Sinr.slot_node f in
        let jams = ref 0 in
        if count_listener_jams then
          for s = slo to shi - 1 do
            let u = Array.unsafe_get snode s in
            if
              (not (Array.unsafe_get transmitting u))
              && (not (is_dead u))
              && jammed u
            then incr jams
          done;
        jam_hits.(i) <- !jams;
        let act, nact = Sinr.active_columns f in
        for a = 0 to nact - 1 do
          let c = Array.unsafe_get act a in
          let lo = max slo (Array.unsafe_get soff c)
          and hi = min shi (Array.unsafe_get soff (c + 1)) in
          if lo < hi then begin
            Sinr.scan_slots f ~column:c ~lo ~hi;
            for s = lo to hi - 1 do
              let u = Array.unsafe_get snode s in
              if (not (Array.unsafe_get transmitting u)) && not (is_dead u)
              then
                match Sinr.verdict f ~jammed:(jammed u) ~slot:s with
                | -1 -> ()
                | src -> Array.unsafe_set heard u src
            done
          end
        done
  in
  (* Absorb: drain the outboxes addressed to this tile (the fold is
     commutative, so drain order cannot matter), then compute each
     member's delivery and step its process. *)
  let phase_absorb i =
    let t = !round in
    let tb = touched.(i) in
    for src_tile = 0 to k - 1 do
      if src_tile <> i then begin
        let b = outbox.(src_tile).(i) in
        let j = ref 0 in
        while !j < b.len do
          fold heard tb
            (Array.unsafe_get b.data !j)
            (Array.unsafe_get b.data (!j + 1));
          j := !j + 2
        done;
        b.len <- 0
      end
    done;
    let mem = members.(i) in
    for idx = 0 to size i - 1 do
      let v = if one then idx else Array.unsafe_get mem idx in
      if is_dead v then begin
        delivered.(v) <- None;
        outputs.(v) <- []
      end
      else begin
        let d =
          match actions.(v) with
          | Process.Transmit _ -> None
          | Process.Listen ->
              let s = Array.unsafe_get heard v in
              if s < 0 then None else Array.unsafe_get said s
        in
        delivered.(v) <- d;
        outputs.(v) <- nodes.(v).Process.absorb ~round:t d
      end
    done
  in
  let pool = if one then None else Some (Parallel.Pool.create ~workers:k) in
  let par job =
    match pool with None -> job 0 | Some p -> Parallel.Pool.run p job
  in
  let loop () =
    let executed = ref 0 in
    let continue = ref true in
    while !continue && !round < rounds do
      let t = !round in
      (* Event emission is gated on the sink's presence per site, never
         per element. *)
      (match sink with
      | None -> ()
      | Some s -> Obs.Sink.emit s (Obs.Event.Round_start { round = t }));
      (* Fault transitions take effect at the top of the round: a node
         crashing at t is already silent in t, a node restarting at t
         already participates in t (with the fresh process [revive]
         supplies — without it, the frozen pre-crash state resumes). *)
      (match fault_cursor with
      | None -> ()
      | Some cur ->
          Faults.Plan.apply cur ~round:t (fun node transition ->
              match transition with
              | Faults.Plan.Crash ->
                  Bytes.unsafe_set dead node '\001';
                  (match sink with
                  | None -> ()
                  | Some s ->
                      Obs.Sink.emit s (Obs.Event.Crash { round = t; node }));
                  Option.iter Obs.Metrics.incr ctr_crash
              | Faults.Plan.Restart ->
                  Bytes.unsafe_set dead node '\000';
                  (match revive with
                  | Some fresh -> nodes.(node) <- fresh ~node ~round:t
                  | None -> ());
                  (match sink with
                  | None -> ()
                  | Some s ->
                      Obs.Sink.emit s (Obs.Event.Restart { round = t; node }));
                  Option.iter Obs.Metrics.incr ctr_restart));
      if not tiles_poll then poll ~ident:true [||] n;
      par phase_decide;
      let tcount = ref 0 in
      for i = 0 to k - 1 do
        tcount := !tcount + tx.(i).len
      done;
      if !tcount > 0 then begin
        match sinr_field with
        | Some f ->
            (* The link scheduler is not consulted under SINR.  The field
               loads the transmitters in ascending id order: one tile's
               list already is; several tiles' lists are gathered from
               the on-air vector, never concatenated (stripes do not
               partition the id space). *)
            let txs =
              if one then tx.(0)
              else begin
                on_air.len <- 0;
                for v = 0 to n - 1 do
                  if Array.unsafe_get transmitting v then ibuf_push on_air v
                done;
                on_air
              end
            in
            Sinr.load_round f ~transmitters:txs.data ~count:!tcount;
            par phase_sinr
        | None ->
            let marked =
              if m > 0 && (batch || Option.is_some ctr_active) then begin
                let count = fill_sparse ~round:t ~transmitting sparse in
                count_active count;
                if batch then count else 0
              end
              else 0
            in
            set_marks marked '\001';
            par phase_push;
            set_marks marked '\000'
      end;
      par phase_absorb;
      (* Jam accounting: suppressed transmitters (dual graph) or jammed
         listeners of a contended round (SINR), summed over the tiles. *)
      (match ctr_jam with
      | Some c ->
          let total = Array.fold_left ( + ) 0 jam_hits in
          if total > 0 then Obs.Metrics.incr ~by:total c
      | None -> ());
      (* Structural events: one Transmit per transmitter, one
         Deliver/Collision per affected listener, read from [heard]
         before it is reset below. *)
      let deliveries = ref 0 and collisions = ref 0 in
      (match sink with
      | None -> ()
      | Some s ->
          for v = 0 to n - 1 do
            if transmitting.(v) then
              Obs.Sink.emit s (Obs.Event.Transmit { round = t; node = v })
          done;
          if !tcount > 0 then begin
            for u = 0 to n - 1 do
              match actions.(u) with
              | Process.Transmit _ -> ()
              | Process.Listen when is_dead u -> ()
              | Process.Listen ->
                  let h = heard.(u) in
                  if h = -2 then begin
                    incr collisions;
                    Obs.Sink.emit s (Obs.Event.Collision { round = t; node = u })
                  end
                  else if h >= 0 then begin
                    incr deliveries;
                    Obs.Sink.emit s (Obs.Event.Deliver { round = t; node = u })
                  end
            done
          end);
      if !tcount > 0 then begin
        (match sinr_field with
        | Some f ->
            let act, nact = Sinr.active_columns f in
            let soff = Sinr.slot_off f and snode = Sinr.slot_node f in
            for a = 0 to nact - 1 do
              let c = Array.unsafe_get act a in
              for s = Array.unsafe_get soff c to Array.unsafe_get soff (c + 1) - 1 do
                Array.unsafe_set heard (Array.unsafe_get snode s) (-1)
              done
            done
        | None -> ());
        for i = 0 to k - 1 do
          let tb = touched.(i) in
          for j = 0 to tb.len - 1 do
            Array.unsafe_set heard (Array.unsafe_get tb.data j) (-1)
          done;
          tb.len <- 0;
          let txb = tx.(i) in
          for j = 0 to txb.len - 1 do
            Array.unsafe_set said (Array.unsafe_get txb.data j) None
          done
        done
      end;
      (* Outputs, consumed by the environment. *)
      for v = 0 to n - 1 do
        match outputs.(v) with
        | [] -> ()
        | outs -> env.Env.notify ~round:t ~node:v outs
      done;
      (match (observer, stop) with
      | None, None -> ()
      | _ -> (
          let record = { Trace.round = t; inputs; actions; delivered; outputs } in
          (match observer with Some f -> f record | None -> ());
          match stop with Some p when p record -> continue := false | _ -> ()));
      (* Round_end comes after the observer so that protocol-level events
         a translating observer emits (Localcast.Lb_obs) land inside the
         round's bracket. *)
      (match sink with
      | None -> ()
      | Some s ->
          Obs.Sink.emit s
            (Obs.Event.Round_end
               {
                 round = t;
                 transmitters = !tcount;
                 deliveries = !deliveries;
                 collisions = !collisions;
               }));
      incr executed;
      incr round
    done;
    !executed
  in
  match pool with
  | None -> loop ()
  | Some p -> Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) loop
