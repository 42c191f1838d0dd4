type policy = Drop_tail | Drop_newest | Source_throttle

let policy_to_string = function
  | Drop_tail -> "drop-tail"
  | Drop_newest -> "drop-newest"
  | Source_throttle -> "source-throttle"

let pp_policy ppf p = Format.pp_print_string ppf (policy_to_string p)

let parse_policy =
  Grammar.parse "policy"
    (Grammar.tags
       (List.map
          (fun p -> (policy_to_string p, Grammar.bare p))
          [ Drop_tail; Drop_newest; Source_throttle ]))

type config = {
  queue_cap : int;
  max_inflight : int;
  ttl : int;
  policy : policy;
  ack_deadline : int;
}

let config ?(queue_cap = 16) ?(max_inflight = 4096) ?(ttl = 8192)
    ?(policy = Drop_tail) ?(ack_deadline = 0) () =
  if queue_cap < 1 then invalid_arg "Serve.config: queue_cap must be >= 1";
  if max_inflight < 1 then invalid_arg "Serve.config: max_inflight must be >= 1";
  if ttl < 1 then invalid_arg "Serve.config: ttl must be >= 1";
  if ack_deadline < 0 then invalid_arg "Serve.config: negative ack_deadline";
  { queue_cap; max_inflight; ttl; policy; ack_deadline }

type report = {
  rounds : int;
  arrivals : int;
  admitted : int;
  rejected : int;
  completed : int;
  expired : int;
  inflight : int;
  relays : int;
  relay_drops : int;
  stale_skips : int;
  acks : int;
  ack_misses : int;
  first_receptions : int;
  goodput : float;
  delivery_p50 : float;
  delivery_p99 : float;
  delivery_max : float;
  ack_p50 : float;
  ack_p99 : float;
  max_queue_depth : int;
  mean_queue_depth : float;
  minor_words_per_round : float;
  audit : string list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>rounds %d: %d arrivals = %d admitted + %d rejected@,\
     admitted = %d completed + %d expired + %d inflight@,\
     %d relays (%d dropped, %d stale skips), %d acks (%d deadline misses), \
     %d first receptions@,\
     goodput %.4f/round; delivery p50/p99/max %.0f/%.0f/%.0f; ack p50/p99 \
     %.0f/%.0f@,\
     queue depth mean %.1f max %d; minor words/round %.1f%s@]" r.rounds
    r.arrivals r.admitted r.rejected r.completed r.expired r.inflight r.relays
    r.relay_drops r.stale_skips r.acks r.ack_misses r.first_receptions r.goodput
    r.delivery_p50 r.delivery_p99 r.delivery_max r.ack_p50 r.ack_p99
    r.mean_queue_depth r.max_queue_depth
    r.minor_words_per_round
    (match r.audit with
    | [] -> ""
    | l -> "\nAUDIT: " ^ String.concat "; " l)

module Core = struct
  type mirror = {
    m_arrivals : Obs.Metrics.counter;
    m_admitted : Obs.Metrics.counter;
    m_rejected : Obs.Metrics.counter;
    m_completed : Obs.Metrics.counter;
    m_expired : Obs.Metrics.counter;
    m_relays : Obs.Metrics.counter;
    m_relay_drops : Obs.Metrics.counter;
    m_stale : Obs.Metrics.counter;
    m_acks : Obs.Metrics.counter;
    m_ack_misses : Obs.Metrics.counter;
    m_first : Obs.Metrics.counter;
    m_inflight : Obs.Metrics.gauge;
    m_depth : Obs.Metrics.gauge;
    m_delivery : Obs.Metrics.histogram;
    m_ack : Obs.Metrics.histogram;
  }

  type t = {
    n : int;
    cap : int;
    pool : int;
    ttl : int;
    policy : policy;
    deadline : int;
    (* slot pool: all per-message state, O(max_inflight) forever *)
    slot_bits : int;
    slot_mask : int;
    birth : int array;
    gen : int array;
    covered : int array;
    seen : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
    row_bytes : int;
    (* [next] threads two lists, and a slot is on exactly one: the free
       LIFO from [free_head], and the live FIFO in admission order from
       [oldest] to [newest] (with [prev]).  One ttl and strictly
       increasing ticks make admission order the order deadlines fall
       due, so expiry pops from [oldest]. *)
    prev : int array;
    next : int array;
    mutable free_head : int;
    mutable oldest : int;
    mutable newest : int;
    (* per-node relay rings, flattened *)
    qbuf : int array;
    qhead : int array;
    qlen : int array;
    mutable total_queued : int;
    (* per-node MAC endpoint state *)
    out_entry : int array;
    out_since : int array;
    mutable send : node:int -> tag:int -> bool;
    mutable last_round : int;
    (* counters *)
    mutable arrivals : int;
    mutable admitted : int;
    mutable rejected : int;
    mutable completed : int;
    mutable expired : int;
    mutable inflight : int;
    mutable relays : int;
    mutable relay_drops : int;
    mutable stale_skips : int;
    mutable acks : int;
    mutable ack_misses : int;
    mutable first_receptions : int;
    mutable max_depth : int;
    q_delivery : Stats.Quantile.t;
    q_ack : Stats.Quantile.t;
    q_depth : Stats.Quantile.t;
    mirror : mirror option;
  }

  let create ?metrics ~config:cfg ~n () =
    if n < 1 then invalid_arg "Serve.Core.create: need at least one node";
    let pool = cfg.max_inflight in
    let slot_bits =
      let rec go b = if 1 lsl b >= pool then b else go (b + 1) in
      go 1
    in
    let row_bytes = (n + 7) / 8 in
    let seen =
      Bigarray.Array1.create Bigarray.char Bigarray.c_layout (pool * row_bytes)
    in
    Bigarray.Array1.fill seen '\000';
    let mirror =
      match metrics with
      | None -> None
      | Some reg ->
          let c = Obs.Metrics.counter reg in
          Some
            {
              m_arrivals = c "serve.arrivals";
              m_admitted = c "serve.admitted";
              m_rejected = c "serve.rejected";
              m_completed = c "serve.completed";
              m_expired = c "serve.expired";
              m_relays = c "serve.relays";
              m_relay_drops = c "serve.relay_drops";
              m_stale = c "serve.stale_skips";
              m_acks = c "serve.acks";
              m_ack_misses = c "serve.ack_misses";
              m_first = c "serve.first_receptions";
              m_inflight = Obs.Metrics.gauge reg "serve.inflight";
              m_depth = Obs.Metrics.gauge reg "serve.queue_depth";
              m_delivery =
                Obs.Metrics.bounded_histogram reg "serve.delivery_latency";
              m_ack = Obs.Metrics.bounded_histogram reg "serve.ack_latency";
            }
    in
    {
      n;
      cap = cfg.queue_cap;
      pool;
      ttl = cfg.ttl;
      policy = cfg.policy;
      deadline = cfg.ack_deadline;
      slot_bits;
      slot_mask = (1 lsl slot_bits) - 1;
      birth = Array.make pool 0;
      gen = Array.make pool 0;
      covered = Array.make pool 0;
      seen;
      row_bytes;
      prev = Array.make pool (-1);
      next = Array.init pool (fun i -> if i + 1 < pool then i + 1 else -1);
      free_head = 0;
      oldest = -1;
      newest = -1;
      qbuf = Array.make (n * cfg.queue_cap) 0;
      qhead = Array.make n 0;
      qlen = Array.make n 0;
      total_queued = 0;
      out_entry = Array.make n (-1);
      out_since = Array.make n 0;
      send = (fun ~node:_ ~tag:_ -> false);
      last_round = -1;
      arrivals = 0;
      admitted = 0;
      rejected = 0;
      completed = 0;
      expired = 0;
      inflight = 0;
      relays = 0;
      relay_drops = 0;
      stale_skips = 0;
      acks = 0;
      ack_misses = 0;
      first_receptions = 0;
      max_depth = 0;
      q_delivery = Stats.Quantile.create ();
      q_ack = Stats.Quantile.create ();
      q_depth = Stats.Quantile.create ();
      mirror;
    }

  let set_send t f = t.send <- f

  let inflight t = t.inflight

  let queued t = t.total_queued

  (* entry interning: (generation lsl slot_bits) lor slot; MAC tag is
     entry + 1 so tag 0 never travels *)

  let[@inline] entry_of_slot t slot = (t.gen.(slot) lsl t.slot_bits) lor slot

  let[@inline] slot_of_entry t entry = entry land t.slot_mask

  (* [free_slot] bumps the generation, so a freed slot's old entries
     never match again *)
  let[@inline] live t entry =
    Array.unsafe_get t.gen (entry land t.slot_mask) = entry lsr t.slot_bits

  let[@inline] seen_get t slot node =
    let byte = (slot * t.row_bytes) + (node lsr 3) in
    Char.code (Bigarray.Array1.unsafe_get t.seen byte) land (1 lsl (node land 7))
    <> 0

  let[@inline] seen_set t slot node =
    let byte = (slot * t.row_bytes) + (node lsr 3) in
    Bigarray.Array1.unsafe_set t.seen byte
      (Char.unsafe_chr
         (Char.code (Bigarray.Array1.unsafe_get t.seen byte)
         lor (1 lsl (node land 7))))

  let[@inline] mincr m f = match m with Some m -> Obs.Metrics.incr (f m) | None -> ()

  (* unlink from the live FIFO, push on the free LIFO *)
  let free_slot t slot =
    let p = t.prev.(slot) and nx = t.next.(slot) in
    if p < 0 then t.oldest <- nx else t.next.(p) <- nx;
    if nx < 0 then t.newest <- p else t.prev.(nx) <- p;
    t.gen.(slot) <- t.gen.(slot) + 1;
    t.next.(slot) <- t.free_head;
    t.free_head <- slot;
    t.inflight <- t.inflight - 1

  let complete t slot ~round =
    t.completed <- t.completed + 1;
    let lat = round - t.birth.(slot) in
    Stats.Quantile.observe_int t.q_delivery lat;
    (match t.mirror with
    | Some m ->
        Obs.Metrics.incr m.m_completed;
        Obs.Metrics.observe m.m_delivery (float_of_int lat)
    | None -> ());
    free_slot t slot

  let expire t slot =
    t.expired <- t.expired + 1;
    mincr t.mirror (fun m -> m.m_expired);
    free_slot t slot

  (* pop queued relays for [node] until one is live and the MAC takes
     it; stale entries (completed or expired since they were queued) are
     skipped here — lazy invalidation *)
  let pump t ~node ~round =
    if Array.unsafe_get t.out_entry node < 0 then begin
      let continue = ref true in
      let base = node * t.cap in
      while !continue && Array.unsafe_get t.qlen node > 0 do
        let head = Array.unsafe_get t.qhead node in
        let e = Array.unsafe_get t.qbuf (base + head) in
        Array.unsafe_set t.qhead node ((head + 1) mod t.cap);
        Array.unsafe_set t.qlen node (Array.unsafe_get t.qlen node - 1);
        t.total_queued <- t.total_queued - 1;
        if live t e then
          if t.send ~node ~tag:(e + 1) then begin
            Array.unsafe_set t.out_entry node e;
            Array.unsafe_set t.out_since node round;
            t.relays <- t.relays + 1;
            mincr t.mirror (fun m -> m.m_relays);
            continue := false
          end
          else begin
            (* the channel refused: put it back at the head and wait *)
            let head' = (head - 1 + t.cap) mod t.cap in
            Array.unsafe_set t.qhead node head';
            Array.unsafe_set t.qbuf (base + head') e;
            Array.unsafe_set t.qlen node (Array.unsafe_get t.qlen node + 1);
            t.total_queued <- t.total_queued + 1;
            continue := false
          end
        else begin
          t.stale_skips <- t.stale_skips + 1;
          mincr t.mirror (fun m -> m.m_stale)
        end
      done
    end

  let enqueue t ~node ~entry ~round =
    let len = Array.unsafe_get t.qlen node in
    if len = t.cap then begin
      t.relay_drops <- t.relay_drops + 1;
      mincr t.mirror (fun m -> m.m_relay_drops);
      match t.policy with
      | Drop_newest ->
          (* evict the newest queued entry in favor of the incoming one *)
          let tail = (Array.unsafe_get t.qhead node + len - 1) mod t.cap in
          Array.unsafe_set t.qbuf ((node * t.cap) + tail) entry
      | Drop_tail | Source_throttle -> ()
    end
    else begin
      let tail = (Array.unsafe_get t.qhead node + len) mod t.cap in
      Array.unsafe_set t.qbuf ((node * t.cap) + tail) entry;
      Array.unsafe_set t.qlen node (len + 1);
      t.total_queued <- t.total_queued + 1
    end;
    pump t ~node ~round

  let reject t =
    t.rejected <- t.rejected + 1;
    mincr t.mirror (fun m -> m.m_rejected)

  let admit t ~node ~round =
    t.arrivals <- t.arrivals + 1;
    mincr t.mirror (fun m -> m.m_arrivals);
    if t.policy = Source_throttle && t.qlen.(node) = t.cap then reject t
    else if t.free_head < 0 then reject t
    else begin
      let slot = t.free_head in
      t.free_head <- t.next.(slot);
      (* link at the newest end of the live FIFO *)
      t.prev.(slot) <- t.newest;
      t.next.(slot) <- -1;
      if t.newest < 0 then t.oldest <- slot else t.next.(t.newest) <- slot;
      t.newest <- slot;
      t.birth.(slot) <- round;
      t.covered.(slot) <- 1;
      (* reset the coverage row *)
      let base = slot * t.row_bytes in
      for b = base to base + t.row_bytes - 1 do
        Bigarray.Array1.unsafe_set t.seen b '\000'
      done;
      seen_set t slot node;
      t.first_receptions <- t.first_receptions + 1;
      mincr t.mirror (fun m -> m.m_first);
      t.admitted <- t.admitted + 1;
      t.inflight <- t.inflight + 1;
      mincr t.mirror (fun m -> m.m_admitted);
      let entry = entry_of_slot t slot in
      if t.covered.(slot) = t.n then complete t slot ~round
      else enqueue t ~node ~entry ~round
    end

  let tick t ~workload ~round =
    if round <= t.last_round then
      invalid_arg "Serve.Core.tick: rounds must be strictly increasing";
    t.last_round <- round;
    (* expire every message whose deadline has come, oldest first *)
    while t.oldest >= 0 && t.birth.(t.oldest) + t.ttl <= round do
      expire t t.oldest
    done;
    (* inject this round's offered load *)
    for node = 0 to t.n - 1 do
      let k = Workload.arrivals workload ~node ~round in
      for _ = 1 to k do
        admit t ~node ~round
      done
    done;
    Stats.Quantile.observe_int t.q_depth t.total_queued;
    if t.total_queued > t.max_depth then t.max_depth <- t.total_queued;
    match t.mirror with
    | Some m ->
        Obs.Metrics.set m.m_inflight (float_of_int t.inflight);
        Obs.Metrics.set m.m_depth (float_of_int t.total_queued)
    | None -> ()

  let on_recv t ~node ~round ~tag =
    let entry = tag - 1 in
    if live t entry then begin
      let slot = slot_of_entry t entry in
      if not (seen_get t slot node) then begin
        seen_set t slot node;
        t.first_receptions <- t.first_receptions + 1;
        mincr t.mirror (fun m -> m.m_first);
        t.covered.(slot) <- t.covered.(slot) + 1;
        if t.covered.(slot) = t.n then complete t slot ~round
        else enqueue t ~node ~entry ~round
      end
    end
  (* stale tag: the message completed or expired while this copy was in
     flight — nothing to do *)

  let on_ack t ~node ~round ~tag =
    let entry = tag - 1 in
    if Array.unsafe_get t.out_entry node = entry then begin
      t.acks <- t.acks + 1;
      let lat = round - Array.unsafe_get t.out_since node in
      Stats.Quantile.observe_int t.q_ack lat;
      (match t.mirror with
      | Some m ->
          Obs.Metrics.incr m.m_acks;
          Obs.Metrics.observe m.m_ack (float_of_int lat)
      | None -> ());
      if t.deadline > 0 && lat > t.deadline then begin
        t.ack_misses <- t.ack_misses + 1;
        mincr t.mirror (fun m -> m.m_ack_misses)
      end;
      Array.unsafe_set t.out_entry node (-1);
      pump t ~node ~round
    end

  let report ?(minor_words_per_round = Float.nan) t ~rounds =
    let audit = ref [] in
    if t.arrivals <> t.admitted + t.rejected then
      audit :=
        Printf.sprintf "arrivals %d <> admitted %d + rejected %d" t.arrivals
          t.admitted t.rejected
        :: !audit;
    if t.admitted <> t.completed + t.expired + t.inflight then
      audit :=
        Printf.sprintf "admitted %d <> completed %d + expired %d + inflight %d"
          t.admitted t.completed t.expired t.inflight
        :: !audit;
    {
      rounds;
      arrivals = t.arrivals;
      admitted = t.admitted;
      rejected = t.rejected;
      completed = t.completed;
      expired = t.expired;
      inflight = t.inflight;
      relays = t.relays;
      relay_drops = t.relay_drops;
      stale_skips = t.stale_skips;
      acks = t.acks;
      ack_misses = t.ack_misses;
      first_receptions = t.first_receptions;
      goodput = float_of_int t.completed /. float_of_int (max 1 rounds);
      delivery_p50 = Stats.Quantile.quantile t.q_delivery 0.5;
      delivery_p99 = Stats.Quantile.quantile t.q_delivery 0.99;
      delivery_max =
        (if Stats.Quantile.count t.q_delivery = 0 then Float.nan
         else Stats.Quantile.max_value t.q_delivery);
      ack_p50 = Stats.Quantile.quantile t.q_ack 0.5;
      ack_p99 = Stats.Quantile.quantile t.q_ack 0.99;
      max_queue_depth = t.max_depth;
      mean_queue_depth = Stats.Quantile.mean t.q_depth;
      minor_words_per_round;
      audit = !audit;
    }
end

module Sim = struct
  type t = {
    core : Core.t;
    n : int;
    half : int;  (* ring offsets ±1..±half; half = 0 means whole ring *)
    relay_delay : int;
    ack_delay : int;
    (* event wheel: (node, code) with code = tag for recv, -tag for ack *)
    ev_node : int array array;
    ev_code : int array array;
    ev_len : int array;
    mutable round : int;
  }

  let schedule t ~at ~node ~code =
    let b = at mod (t.ack_delay + 1) in
    let len = t.ev_len.(b) in
    if len = Array.length t.ev_node.(b) then begin
      let grow a =
        let bigger = Array.make (2 * len) 0 in
        Array.blit a 0 bigger 0 len;
        bigger
      in
      t.ev_node.(b) <- grow t.ev_node.(b);
      t.ev_code.(b) <- grow t.ev_code.(b)
    end;
    t.ev_node.(b).(len) <- node;
    t.ev_code.(b).(len) <- code;
    t.ev_len.(b) <- len + 1

  let create ?metrics ~config ~n ~degree ~relay_delay ~ack_delay () =
    if relay_delay < 1 then invalid_arg "Serve.Sim.create: relay_delay < 1";
    if ack_delay < relay_delay then
      invalid_arg "Serve.Sim.create: ack_delay < relay_delay";
    if degree < 2 || degree mod 2 <> 0 then
      invalid_arg "Serve.Sim.create: degree must be even and >= 2";
    let core = Core.create ?metrics ~config ~n () in
    let half = if degree >= n then 0 else degree / 2 in
    let t =
      {
        core;
        n;
        half;
        relay_delay;
        ack_delay;
        ev_node = Array.init (ack_delay + 1) (fun _ -> Array.make 16 0);
        ev_code = Array.init (ack_delay + 1) (fun _ -> Array.make 16 0);
        ev_len = Array.make (ack_delay + 1) 0;
        round = 0;
      }
    in
    Core.set_send core (fun ~node ~tag ->
        let r = t.round in
        if t.half = 0 then
          for j = 1 to n - 1 do
            schedule t ~at:(r + t.relay_delay) ~node:((node + j) mod n) ~code:tag
          done
        else
          for j = 1 to t.half do
            schedule t ~at:(r + t.relay_delay) ~node:((node + j) mod n) ~code:tag;
            schedule t ~at:(r + t.relay_delay)
              ~node:((node - j + n) mod n)
              ~code:tag
          done;
        schedule t ~at:(r + t.ack_delay) ~node ~code:(-tag);
        true);
    t

  let core t = t.core

  let round t = t.round

  let step t ~workload =
    let r = t.round in
    let b = r mod (t.ack_delay + 1) in
    (* deliveries and acks due this round; events scheduled while
       draining always land in a different bucket (delay >= 1 < wheel) *)
    for i = 0 to t.ev_len.(b) - 1 do
      let node = t.ev_node.(b).(i) in
      let code = t.ev_code.(b).(i) in
      if code > 0 then Core.on_recv t.core ~node ~round:r ~tag:code
      else Core.on_ack t.core ~node ~round:r ~tag:(-code)
    done;
    t.ev_len.(b) <- 0;
    Core.tick t.core ~workload ~round:r;
    t.round <- r + 1

  let run t ~workload ~rounds ?warmup () =
    let warmup =
      match warmup with Some w -> min w rounds | None -> min (rounds / 10) 1000
    in
    for _ = 1 to warmup do
      step t ~workload
    done;
    let w0 = Gc.minor_words () in
    for _ = warmup + 1 to rounds do
      step t ~workload
    done;
    let w1 = Gc.minor_words () in
    let span = rounds - warmup in
    let minor_words_per_round =
      if span > 0 then (w1 -. w0) /. float_of_int span else Float.nan
    in
    Core.report ~minor_words_per_round t.core ~rounds
end

let run ?sink ?metrics ?warmup ~config:cfg ~workload ~params ~rng ~dual
    ~scheduler ~rounds () =
  let n = Dualgraph.Dual.n dual in
  if Workload.n workload <> n then
    invalid_arg "Serve.run: workload sized for a different node count";
  let cfg =
    if cfg.ack_deadline = 0 then
      { cfg with ack_deadline = Localcast.Params.t_ack_rounds params }
    else cfg
  in
  let core = Core.create ?metrics ~config:cfg ~n () in
  let callbacks =
    {
      Localcast.Mac.on_recv =
        (fun ~node ~round payload ->
          Core.on_recv core ~node ~round ~tag:payload.Localcast.Messages.tag);
      on_ack =
        (fun ~node ~round payload ->
          Core.on_ack core ~node ~round ~tag:payload.Localcast.Messages.tag);
    }
  in
  let mac = Localcast.Mac.create ~callbacks ~params ~rng ~dual () in
  Core.set_send core (fun ~node ~tag -> Localcast.Mac.request mac ~node ~tag);
  let warmup =
    match warmup with Some w -> min w rounds | None -> min (rounds / 10) 1000
  in
  let w0 = ref Float.nan in
  let tick ~round =
    if round = warmup then w0 := Gc.minor_words ();
    Core.tick core ~workload ~round
  in
  (* a closed batch is done once nothing is in flight *)
  let stop =
    match Workload.process workload with
    | Workload.Batch _ -> Some (fun _ -> Core.inflight core = 0)
    | Poisson _ | Bursty _ | Hotspot _ -> None
  in
  let executed =
    Localcast.Mac.run ?sink ?metrics ?stop ~tick mac ~scheduler ~rounds
  in
  let minor_words_per_round =
    if executed > warmup && Float.is_finite !w0 then
      (Gc.minor_words () -. !w0) /. float_of_int (executed - warmup)
    else Float.nan
  in
  Core.report ~minor_words_per_round core ~rounds:executed
