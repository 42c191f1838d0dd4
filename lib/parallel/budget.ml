let capacity_v = max 1 (Domain.recommended_domain_count ())
let in_flight_v = Atomic.make 0

let capacity () = capacity_v
let in_flight () = Atomic.get in_flight_v

let note_spawned k = ignore (Atomic.fetch_and_add in_flight_v k)
let note_joined k = ignore (Atomic.fetch_and_add in_flight_v (-k))

let suggested_extra () = max 0 (capacity () - 1 - in_flight ())
