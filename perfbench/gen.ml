(* Seeded request lists. A list is a pure function of the workload, the
   data set's key sets, the seed and the segment's stream number, so a
   seed replays exactly; the program under test only ever sees the
   generated texts. *)

type body =
  | Query of { text : string; ref_text : string; plus : int }
      (** evaluate [text]; its serialized result must equal the
          reference result of [ref_text], plus [plus] when nonzero (an
          integer result) *)
  | Cycle of { cid : string; tag : int }
      (** the Figure 4 cycle on customer [cid]: get the profile, set
          LAST_NAME to [L<tag>] and the first card's BRAND to [B<tag>],
          submit *)

type req = {
  kind : Server.Pool.kind;
  shape : string;
  body : body;
  arrival_ms : float;  (** open-loop offset from the first arrival *)
}

type keys = {
  read_ids : string array;  (** by-id read keys (Zipf rank order) *)
  submit_ids : string array;  (** customers the Figure 4 cycle targets *)
}

(* repeated texts are shared, so a long request list holds each
   distinct text once *)
let interned : (string, string) Hashtbl.t = Hashtbl.create 256

let intern text =
  match Hashtbl.find_opt interned text with
  | Some t -> t
  | None ->
    Hashtbl.add interned text text;
    text

let same text =
  let text = intern text in
  Query { text; ref_text = text; plus = 0 }

(* --- profile-read: Figure 3 reads and the three read-only XQSE script
   shapes of the server workload, three texts per customer plus two -- *)

let get_profile = "count(profile:getProfile())"
let by_id cid = Printf.sprintf "profile:getProfileById(\"%s\")" cid

let iterate_orders cid =
  Printf.sprintf
    {|{
  declare $open := 0;
  iterate $o over profile:getProfileById("%s")/Orders/ORDERS {
    set $open := $open + (if ($o/STATUS eq 'OPEN') then 1 else 0);
  }
  return value $open;
}|}
    cid

let while_cards cid =
  Printf.sprintf
    {|{
  declare $i := 0;
  declare $cards := 0;
  while ($i lt 2) {
    set $i := $i + 1;
    set $cards := $cards + count(profile:getProfileById("%s")/CreditCards/CREDIT_CARD);
  }
  return value $cards;
}|}
    cid

let try_profile =
  {|{
  declare $r := 0;
  try { set $r := count(profile:getProfile()); }
  catch (*) { set $r := (0 - 1); }
  return value $r;
}|}

let profile_read_texts keys =
  get_profile :: try_profile
  :: List.concat_map
       (fun cid -> [ by_id cid; iterate_orders cid; while_cards cid ])
       (Array.to_list keys.read_ids)

(* --- adhoc-query: every text distinct. The literal [n] varies per
   request; each text's result is its shape's reference result (the same
   text with [n = 0], evaluated once at setup) plus [n]. ---------------- *)

let adhoc_shapes =
  [|
    ( Server.Pool.Read,
      "flwor-open",
      Printf.sprintf
        {|declare function local:open($o) { if ($o/STATUS eq "OPEN") then 1 else 0 };
sum(for $o in orders:ORDERS() where $o/CID eq "%s" return local:open($o)) + %d|}
    );
    ( Server.Pool.Read,
      "flwor-join",
      Printf.sprintf
        {|declare function local:orders($c) { count(for $o in orders:ORDERS() where $o/CID eq $c/CID return $o) };
sum(for $c in customer:CUSTOMER() where $c/CID eq "%s" return local:orders($c)) + %d|}
    );
    ( Server.Pool.Read,
      "profile-cards",
      fun cid n ->
        Printf.sprintf
          {|declare function local:bias() { %d };
count(profile:getProfileById("%s")/CreditCards/CREDIT_CARD) + local:bias()|}
          n cid );
    ( Server.Pool.Script,
      "block-iterate",
      fun cid n ->
        Printf.sprintf
          {|declare function local:start() { %d };
{
  declare $n := local:start();
  iterate $o over orders:ORDERS() {
    if ($o/CID eq "%s") then { set $n := $n + 1; } else { };
  }
  return value $n;
}|}
          n cid );
    ( Server.Pool.Script,
      "block-while",
      fun cid n ->
        Printf.sprintf
          {|declare function local:step() { 1 };
{
  declare $i := 0;
  declare $cards := %d;
  while ($i lt 2) {
    set $i := $i + local:step();
    set $cards := $cards + count(credit_card:CREDIT_CARD()[CID eq "%s"]);
  }
  return value $cards;
}|}
          n cid );
  |]

let adhoc_ref_texts keys =
  List.concat_map
    (fun (_, _, shape) ->
      List.map (fun cid -> shape cid 0) (Array.to_list keys.read_ids))
    (Array.to_list adhoc_shapes)

(* --- generation ------------------------------------------------------- *)

(* cumulative 1/rank weights: rank 1 is drawn most often *)
let zipf_pick rng ids =
  let n = Array.length ids in
  let total = ref 0. in
  let cum = Array.init n (fun r -> total := !total +. (1. /. float_of_int (r + 1)); !total) in
  let x = Random.State.float rng !total in
  let rec go r = if r >= n - 1 || x < cum.(r) then ids.(r) else go (r + 1) in
  go 0

let uniform rng ids = ids.(Random.State.int rng (Array.length ids))

(* Each request's shape comes from a deck: every block of [deck_size]
   consecutive requests holds each shape in its exact share, in shuffled
   order. A round then serves the same mix for every seed — the seed
   moves which customers are asked for, and when, not how many of the
   expensive shapes a round happens to draw. *)
let deck_size (spec : Spec.t) =
  match spec.Spec.mix with
  | Spec.Profile_read -> 50
  | Spec.Adhoc_query -> Array.length adhoc_shapes
  | Spec.Write_mix -> 10

let deck rng size =
  let cards = Array.init size Fun.id and next = ref size in
  fun () ->
    if !next = size then begin
      for k = size - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let c = cards.(k) in
        cards.(k) <- cards.(j);
        cards.(j) <- c
      done;
      next := 0
    end;
    incr next;
    cards.(!next - 1)

(* 35 reads (7 of them getProfile) and 15 scripts in 50: 6
   iterate-orders, 4 while-cards, 5 try-profile. while-cards makes two
   calls where every other request makes one; at 5 in 50 its share was
   exactly the tail beyond p90, and p90 sat on the step between one-call
   and two-call requests. *)
let profile_read rng keys card _i =
  let cid = uniform rng keys.read_ids in
  if card < 7 then (Server.Pool.Read, "getProfile", same get_profile)
  else if card < 35 then (Server.Pool.Read, "getProfileById", same (by_id cid))
  else if card < 41 then (Server.Pool.Script, "iterate-orders", same (iterate_orders cid))
  else if card < 45 then (Server.Pool.Script, "while-cards", same (while_cards cid))
  else (Server.Pool.Script, "try-profile", same try_profile)

let adhoc_query ~literal rng keys card i =
  let kind, shape, text = adhoc_shapes.(card) in
  let cid = uniform rng keys.read_ids in
  let n = literal + i in
  (kind, shape, Query { text = text cid n; ref_text = intern (text cid 0); plus = n })

(* 6 reads and 4 submits in 10 *)
let write_mix ~literal rng keys card i =
  if card < 6 then
    (Server.Pool.Read, "getProfileById", same (by_id (zipf_pick rng keys.read_ids)))
  else
    ( Server.Pool.Submit,
      "figure4-cycle",
      Cycle { cid = uniform rng keys.submit_ids; tag = literal + i } )

(* [stream] separates the lists of one process: each segment draws from
   its own generator state, and adhoc literals / submit tags never
   repeat across segments (a repeated adhoc text would hit the plan
   cache of the template session the one-worker segment runs on) *)
let requests (spec : Spec.t) keys ~seed ~stream ~count ~open_loop =
  let rng = Random.State.make [| seed; stream; Hashtbl.hash spec.Spec.name |] in
  let literal = 1 + (stream * 10_000_000) in
  let draw =
    match spec.Spec.mix with
    | Spec.Profile_read -> profile_read
    | Spec.Adhoc_query -> adhoc_query ~literal
    | Spec.Write_mix -> write_mix ~literal
  in
  let next_card = deck rng (deck_size spec) in
  let clock = ref 0. in
  Array.init count (fun i ->
      let kind, shape, body = draw rng keys (next_card ()) i in
      let arrival_ms =
        if open_loop then begin
          (* Poisson arrivals: exponential interarrival gaps *)
          let u = Random.State.float rng 1.0 in
          clock := !clock +. (-.log (1. -. u) *. 1000. /. spec.Spec.rate_qps);
          !clock
        end
        else 0.
      in
      { kind; shape; body; arrival_ms })

(* serial Figure 4 cycles over the card holders, for the submit probe *)
let probe keys ~seed ~stream ~count =
  let rng = Random.State.make [| seed; stream; 7 |] in
  Array.init count (fun i ->
      {
        kind = Server.Pool.Submit;
        shape = "figure4-probe";
        body = Cycle { cid = uniform rng keys.submit_ids; tag = 1 + (stream * 10_000_000) + i };
        arrival_ms = 0.;
      })

(* every text a worker should have compiled before measurement starts:
   all read texts for the fixed-text workloads, the shape references for
   adhoc-query (whose request texts are all new by construction) *)
let warm_texts (spec : Spec.t) keys =
  match spec.Spec.mix with
  | Spec.Profile_read -> profile_read_texts keys
  | Spec.Adhoc_query -> adhoc_ref_texts keys
  | Spec.Write_mix -> List.map by_id (Array.to_list keys.read_ids)
