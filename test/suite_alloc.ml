(* The allocation gate. Fixtures.Alloc_probe counts the minor words of
   four requests on the Figure 3/4 paths, of a by-id read serialized as
   XML and of the Figure 4 wire round trip; for a given build and OCaml
   version the counts repeat exactly, so each bound is the count
   measured when the gate was set plus 10%. Copying fresh constructor
   content again fails the by-id and getProfile bounds (DESIGN.md §14,
   "Construction"); building every row's children at the read again
   fails the by-id, getProfile and navigation bounds (DESIGN.md §13,
   "Row elements"); building a view row's leaves when it is made fails
   the getProfile bound, and building unbuilt rows to serialize them
   fails the serialized by-id bound (§13, "View rows"; §19);
   deep-copying the datagraph's objects on the wire again fails the
   wire and cycle bounds (DESIGN.md §19, the wire round trip). *)

open Core
open Util
module P = Fixtures.Alloc_probe

(* words measured when the bounds were set. Before adoption and the
   one-node step rule the by-id read, getProfile and the cycle allocated
   11,889, 217,341 and 24,522; before row elements, cell reads and the
   resolved guard state they allocated 4,233, 70,719 and 16,391, and
   the navigation count 18,993. Before the one-buffer serializer, the
   closure-free parser, the copy-free SDO wire, the navigation bypass
   of the result cache and the one-pass scan array the cycle allocated
   15,306 and the wire round trip 6,515. Before view rows, rows written
   from their cells, names boxed once and write admission through
   resolved sources the by-id read, its serialized form, getProfile,
   the navigation count and the cycle allocated 2,767, 3,118, 42,973,
   7,698 and 9,418. *)
let by_id_words = 1_911
let by_id_serialized_words = 2_262
let get_profile_words = 26_493
let nav_words = 7_559
let cycle_words = 8_355
let wire_words = 1_766
let bound words = words + (words / 10)
let probe = lazy (P.measure ())

let within what words measured =
  let limit = bound words in
  if measured > limit then
    Alcotest.failf
      "%s allocates %d minor words, over the gate of %d (%d + 10%%)" what
      measured limit words

let read_path_tests =
  [
    case
      (Printf.sprintf "a by-id read at %d customers" P.read_customers)
      (fun () ->
        within
          (Printf.sprintf "profile:getProfileById(%S)" P.by_id_customer)
          by_id_words (Lazy.force probe).P.by_id);
    case
      (Printf.sprintf "a by-id read at %d customers, serialized" P.read_customers)
      (fun () ->
        within
          (Printf.sprintf "seq_to_string (profile:getProfileById(%S))"
             P.by_id_customer)
          by_id_serialized_words (Lazy.force probe).P.by_id_serialized);
    case
      (Printf.sprintf "count(profile:getProfile()) at %d customers"
         P.read_customers)
      (fun () ->
        within "count(profile:getProfile())" get_profile_words
          (Lazy.force probe).P.get_profile);
    case
      (Printf.sprintf "one getORDERS navigation per customer at %d customers"
         P.read_customers)
      (fun () ->
        within "count(for $c in customer:CUSTOMER() return customer:getORDERS($c))"
          nav_words (Lazy.force probe).P.nav);
    case
      (Printf.sprintf "a Figure 4 cycle at %d customers, cache on"
         P.cycle_customers)
      (fun () ->
        within "the Figure 4 get/change/submit cycle" cycle_words
          (Lazy.force probe).P.cycle);
    case
      (Printf.sprintf "the Figure 4 wire round trip at %d customers"
         P.cycle_customers)
      (fun () ->
        within "Sdo.parse (Sdo.serialize dg)" wire_words
          (Lazy.force probe).P.wire);
  ]

let suites = [ ("alloc.read-path", read_path_tests) ]
