(* Digests of each workload's deterministic output at the default seed
   (20260706), full size and smoke size.  A run at that seed must
   reproduce them exactly: the LB spec report for lb-field, the trace
   digest and engine counts for dual-1e6 and sinr-1e5, and the Serve
   report for serve-sim.  They change only with a change of semantics,
   which then has to be explained where this file is updated. *)

let table =
  [
    ( "lb-field",
      false,
      "rounds=1634 validity=0 acks=0 late=0 missing=0 rel=0/0 prog=0/624 lat=0ec1ddf70359b04b" );
    ( "lb-field",
      true,
      "rounds=817 validity=0 acks=0 late=0 missing=0 rel=0/0 prog=0/15 lat=28a5838f892e3a38" );
    ("dual-1e6", false, "trace=29d17d237a7222ed tx=240003 deliveries=732004 collisions=11868");
    ("dual-1e6", true, "trace=09efd8a3e23f7dd8 tx=219 deliveries=671 collisions=9");
    ("sinr-1e5", false, "trace=11be707c23c9d685 tx=30052 deliveries=203403 collisions=5764365");
    ("sinr-1e5", true, "trace=28de65e38400c1dc tx=107 deliveries=1969 collisions=12007");
    ( "serve-sim",
      false,
      "arrivals=1049392 admitted=1049392 rejected=0 completed=693393 expired=355663 \
       inflight=336 relays=33599762 drops=7309553 stale=3551723 acks=33599698 misses=0 \
       p50=236.205 p99=433.202 ack_p50=2 ack_p99=2 max_queue=1006 mean_queue=936.215212" );
    ( "serve-sim",
      true,
      "arrivals=19932 admitted=19932 rejected=0 completed=13101 expired=6478 inflight=353 \
       relays=639763 drops=135719 stale=67674 acks=639699 misses=0 p50=236.205 p99=433.202 \
       ack_p50=2 ack_p99=2 max_queue=1005 mean_queue=931.245" );
  ]

let find ~workload ~smoke =
  List.find_map (fun (w, s, d) -> if w = workload && s = smoke then Some d else None) table
