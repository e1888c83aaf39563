(* The lineage-invalidated result cache: admission verdicts, counter
   pinning, invalidation precision (a submit decomposed onto ORDERS
   must not evict CUSTOMER-only entries), degraded reads never
   admitted, and fingerprint isolation across with_config forks and
   registry generation bumps. *)

open Core
open Util
module FC = Fixtures.Customer_profile

let contains s sub =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a second logical service whose lineage touches CUSTOMER only — the
   probe for invalidation precision: submits onto other tables must
   leave its entries alone *)
let customers_ns = "ld:Customers"

let customers_source =
  {|
declare namespace ns2 = "ld:Customers";
declare namespace cus = "ld:db1/CUSTOMER";

declare function ns2:getCustomer() as element(ns2:Customer)* {
  for $c in cus:CUSTOMER()
  return <ns2:Customer>
    <CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
  </ns2:Customer>
};
|}

(* a logical service with one read function returning [elem] elements
   of string [fields], its namespace declared as [prefix] *)
let add_service env ~name ~namespace ~prefix ~elem ~fields ~read source =
  let svc =
    Aldsp.Dataspace.create_entity_service env.FC.ds ~name ~namespace
      ~shape:
        {
          Xdm.Schema.name = Xdm.Qname.make ~uri:namespace elem;
          type_def =
            Xdm.Schema.complex
              (List.map
                 (fun f ->
                   Xdm.Schema.particle (Xdm.Qname.local f)
                     (Xdm.Schema.simple (Xdm.Qname.xs "string")))
                 fields);
        }
      ~methods:[ (read, Aldsp.Data_service.Read_function) ]
      source
  in
  Xqse.Session.declare_namespace
    (Aldsp.Dataspace.session env.FC.ds)
    prefix namespace;
  svc

let add_customers_service env =
  add_service env ~name:"Customers" ~namespace:customers_ns ~prefix:"c2"
    ~elem:"Customer" ~fields:[ "CID"; "LAST_NAME" ] ~read:"getCustomer"
    customers_source

(* a CUSTOMER read that also reads a document: its footprint is the
   CUSTOMER table alone, so only the key prefix tells apart two
   sessions that bind different documents at urn:tag *)
let tagged_ns = "ld:Tagged"

let tagged_source =
  {|
declare namespace tg = "ld:Tagged";
declare namespace cus = "ld:db1/CUSTOMER";

declare function tg:getTagged() as element(tg:Tagged)* {
  for $c in cus:CUSTOMER()
  return <tg:Tagged>
    <CID>{fn:data($c/CID)}</CID>
    <TAG>{fn:string(fn:doc("urn:tag")/t)}</TAG>
  </tg:Tagged>
};
|}

let cq = "c2:getCustomer()"

let admission_tests =
  [
    case "footprint verdicts: reads cacheable, procedures and ws ops not"
      (fun () ->
        let env = FC.make ~customers:1 () in
        ignore (add_customers_service env);
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let fp u l n =
          Aldsp.Dataspace.footprint_of env.FC.ds (Xdm.Qname.make ~uri:u l) n
        in
        check_bool "physical read maps to its table" true
          (fp "ld:db1/CUSTOMER" "CUSTOMER" 0 = Some [ ("db1", "CUSTOMER") ]);
        check_bool "logical read spans its whole lineage" true
          (fp "ld:CustomerProfile" "getProfile" 0
          = Some
              [ ("db1", "CUSTOMER"); ("db1", "ORDERS"); ("db2", "CREDIT_CARD") ]);
        check_bool "customers-only logical read" true
          (fp customers_ns "getCustomer" 0 = Some [ ("db1", "CUSTOMER") ]);
        check_bool "ws operation has no footprint, never cacheable" true
          (fp "urn:creditrating" "getCreditRating" 1 = None);
        check_bool "a navigation function has no footprint: an index probe"
          true
          (fp "ld:db1/CUSTOMER" "getORDERS" 1 = None);
        check_bool "physical procedure never cacheable" true
          (fp "ld:db1/CUSTOMER" "createCUSTOMER" 1 = None));
    case "counters pin across miss, hit, evict, bypass" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        ignore (add_customers_service env);
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        (* one read admits two entries: the logical getCustomer call and
           the physical cus:CUSTOMER() read beneath it *)
        let r1 = Xqse.Session.eval_to_string sess cq in
        check_int "cold read misses twice" 2 (counter instr Instr.K.cache_miss);
        check_int "no hits yet" 0 (counter instr Instr.K.cache_hit);
        check_int "two entries" 2 (Cache.Store.size (Cache.store h));
        (* the warm read hits the outer entry and short-circuits the
           inner read entirely: exactly one hit *)
        let r2 = Xqse.Session.eval_to_string sess cq in
        check_string "hit replays the miss byte for byte" r1 r2;
        check_int "one hit" 1 (counter instr Instr.K.cache_hit);
        check_int "still two misses" 2 (counter instr Instr.K.cache_miss);
        check_int "lineage eviction evicts both entries" 2
          (Cache.invalidate h ~instr [ ("db1", "CUSTOMER") ]);
        check_int "evicts counted" 2 (counter instr Instr.K.cache_evict);
        check_int "store emptied" 0 (Cache.Store.size (Cache.store h));
        ignore (Xqse.Session.eval_to_string sess cq);
        check_int "evicted entries miss again" 4
          (counter instr Instr.K.cache_miss);
        let ws =
          {|crs:getCreditRating(<crs:getCreditRating><crs:lastName>X</crs:lastName><crs:ssn>1</crs:ssn></crs:getCreditRating>)|}
        in
        ignore (Xqse.Session.eval_to_string sess ws);
        ignore (Xqse.Session.eval_to_string sess ws);
        check_int "footprint-free reads bypass every time" 2
          (counter instr Instr.K.cache_bypass);
        check_int "bypass admits nothing" 2 (Cache.Store.size (Cache.store h)));
    case "streamed and keyed reads count as bypasses" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let c = counter instr in
        (* count() pulls the read as a stream: no stored value to look
           up or admit *)
        ignore (Xqse.Session.eval_to_string sess "count(customer:CUSTOMER())");
        check_int "a streamed read is a bypass" 1 (c Instr.K.cache_bypass);
        (* a keyed read selects rows below the cache *)
        ignore
          (Xqse.Session.eval_to_string sess
             {|credit_card:CREDIT_CARD()[CID eq "C1"]|});
        check_int "a keyed read is a bypass" 2 (c Instr.K.cache_bypass);
        check_int "neither looked the cache up" 0
          (c Instr.K.cache_miss + c Instr.K.cache_hit);
        check_int "nor admitted anything" 0 (Cache.Store.size (Cache.store h));
        (* the same read, materialized whole, still goes through it *)
        ignore (Xqse.Session.eval_to_string sess "customer:CUSTOMER()");
        check_int "an eager read misses" 1 (c Instr.K.cache_miss);
        check_int "and is no bypass" 2 (c Instr.K.cache_bypass));
    case "degraded reads are never admitted" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let ctl = Resilience.Control.create ~instr () in
        Resilience.Control.set_policy ctl ~source:"CreditRatingService"
          (Resilience.Policy.make
             ~breaker:
               {
                 Resilience.Breaker.failure_threshold = 1;
                 cooldown_ms = 1_000_000.;
               }
             ());
        Resilience.Control.set_degradable ctl ~source:"CreditRatingService";
        let env = FC.make ~customers:1 ~instr ~resilience:ctl () in
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        Resilience.Control.trip ctl ~source:"CreditRatingService";
        let q = "profile:getProfile()" in
        let r1 = Xqse.Session.eval_to_string sess q in
        check_bool "the read degraded" true
          (Resilience.Control.degradations ctl <> []);
        check_bool "no rating in the degraded result" false
          (contains r1 "<CreditRating>");
        let size1 = Cache.Store.size (Cache.store h) in
        let m1 = counter instr Instr.K.cache_miss in
        let e1 = Resilience.Control.degradation_count ctl in
        let r2 = Xqse.Session.eval_to_string sess q in
        check_string "degraded replay is deterministic" r1 r2;
        check_int "the epoch moved once per degradation the replay noted"
          (List.length (Resilience.Control.degradations ctl))
          (Resilience.Control.degradation_count ctl);
        check_bool "and the replay noted some" true
          (Resilience.Control.degradation_count ctl > e1);
        check_bool "degraded read misses again — it was refused" true
          (counter instr Instr.K.cache_miss > m1);
        check_int "no degraded entry ever admitted" size1
          (Cache.Store.size (Cache.store h)));
    case "the degradation epoch moves once per degradation" (fun () ->
        let ctl = Resilience.Control.create () in
        check_int "none yet" 0 (Resilience.Control.degradation_count ctl);
        for i = 1 to 3 do
          Resilience.Control.note_degraded ctl ~source:"db2" ~code:"RESX0002"
            ~message:"down";
          check_int
            (Printf.sprintf "after degradation %d" i)
            i
            (Resilience.Control.degradation_count ctl)
        done;
        check_int "the log agrees" 3
          (List.length (Resilience.Control.degradations ctl)));
    case "navigation calls bypass; the call that navigates still hits"
      (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let c = counter instr in
        let nav = "for $c in customer:CUSTOMER() return customer:getORDERS($c)" in
        let n1 = Xqse.Session.eval_to_string sess nav in
        check_int "one bypass per customer row" 3 (c Instr.K.cache_bypass);
        check_int "only the CUSTOMER read is admitted" 1
          (Cache.Store.size (Cache.store h));
        let n2 = Xqse.Session.eval_to_string sess nav in
        check_string "same orders" n1 n2;
        check_int "the navigations bypass again" 6 (c Instr.K.cache_bypass);
        let q = {|profile:getProfileById("007")|} in
        let r1 = Xqse.Session.eval_to_string sess q in
        let b = c Instr.K.cache_bypass and hits = c Instr.K.cache_hit in
        let r2 = Xqse.Session.eval_to_string sess q in
        check_string "the hit replays the miss" r1 r2;
        check_int "the outer call hits" (hits + 1) (c Instr.K.cache_hit);
        check_int "and skips its navigation" b (c Instr.K.cache_bypass));
  ]

let invalidation_tests =
  [
    case "submit onto ORDERS does not evict CUSTOMER-only entries"
      (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:2 ~instr () in
        ignore (add_customers_service env);
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let sess = Aldsp.Dataspace.session env.FC.ds in
        ignore (Xqse.Session.eval_to_string sess cq);
        (* populate profile entries, then rewrite one order's STATUS —
           the change decomposes onto db1/ORDERS alone *)
        let dg = FC.get_profile_by_id env "007" in
        Sdo.set_leaf dg 1
          [ ("Orders", 1); ("ORDERS", 1); ("STATUS", 1) ]
          "SHIPPED";
        let sr = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
        check_bool "order submit committed" true sr.Aldsp.Dataspace.sr_committed;
        check_bool "the submit evicted profile entries" true
          (counter instr Instr.K.cache_evict > 0);
        let h0 = counter instr Instr.K.cache_hit in
        let m0 = counter instr Instr.K.cache_miss in
        ignore (Xqse.Session.eval_to_string sess cq);
        check_int "customer-only entry survived: hit" (h0 + 1)
          (counter instr Instr.K.cache_hit);
        check_int "customer-only entry survived: no miss" m0
          (counter instr Instr.K.cache_miss);
        (* the evicted profile read re-reads the sources, not the cache *)
        let status =
          Xqse.Session.eval_to_string sess
            {|(profile:getProfileById("007")/Orders/ORDERS)[1]/STATUS|}
        in
        check_bool "fresh read sees the committed STATUS" true
          (contains status "SHIPPED");
        (* a CUSTOMER submit, by contrast, does evict the probe entry *)
        let dg2 = FC.get_profile_by_id env "007" in
        Sdo.set_leaf dg2 1 [ ("LAST_NAME", 1) ] "Moneypenny";
        let sr2 = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg2 in
        check_bool "customer submit committed" true
          sr2.Aldsp.Dataspace.sr_committed;
        let m1 = counter instr Instr.K.cache_miss in
        let after = Xqse.Session.eval_to_string sess cq in
        (* both CUSTOMER entries — logical and physical — were evicted *)
        check_int "customer entries evicted: fresh misses" (m1 + 2)
          (counter instr Instr.K.cache_miss);
        check_bool "fresh read sees the committed LAST_NAME" true
          (contains after "Moneypenny"));
    case "Figure 4 cycles strand no entries" (fun () ->
        (* each cycle rewrites 007's row; an entry keyed by that row and
           evicted only by writes to another table would be left behind
           by every cycle until the store's cap flushed it *)
        let env = FC.make ~customers:10 () in
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let largest = ref 0 and committed = ref 0 in
        for k = 1 to 600 do
          let dg = FC.get_profile_by_id env "007" in
          Sdo.set_leaf dg 1 [ ("LAST_NAME", 1) ] (Printf.sprintf "L%d" k);
          Sdo.set_leaf dg 1
            [ ("CreditCards", 1); ("CREDIT_CARD", 1); ("BRAND", 1) ]
            (Printf.sprintf "B%d" k);
          let r = Aldsp.Dataspace.submit env.FC.ds env.FC.svc dg in
          if r.Aldsp.Dataspace.sr_committed then incr committed;
          largest := max !largest (Cache.Store.size (Cache.store h))
        done;
        check_int "every submit committed" 600 !committed;
        check_bool
          (Printf.sprintf "the store stays at a handful of entries (at most %d)"
             !largest)
          true (!largest <= 5));
  ]

let fingerprint_tests =
  [
    case "with_config forks share entries under one fingerprint" (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        ignore (add_customers_service env);
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let sess = Aldsp.Dataspace.session env.FC.ds in
        let r0 = Xqse.Session.eval_to_string sess cq in
        check_int "base misses" 2 (counter instr Instr.K.cache_miss);
        (* an identically-configured fork (a pool worker) lands on the
           same fingerprint and shares the warm entry *)
        let same = Xqse.Session.with_config sess (Xqse.Session.config sess) in
        let r1 = Xqse.Session.eval_to_string same cq in
        check_string "fork reads the shared entry" r0 r1;
        check_int "fork hit" 1 (counter instr Instr.K.cache_hit);
        check_int "fork added no miss" 2 (counter instr Instr.K.cache_miss);
        (* a differently-configured fork moves to a fresh fingerprint:
           no cross-config hit, same result recomputed *)
        let noopt =
          Xqse.Session.with_config sess
            { (Xqse.Session.config sess) with Xqse.Session.optimize = false }
        in
        let r2 = Xqse.Session.eval_to_string noopt cq in
        check_string "unoptimized fork recomputes the same result" r0 r2;
        check_int "unoptimized fork missed" 4 (counter instr Instr.K.cache_miss);
        check_int "both fingerprints admitted" 4
          (Cache.Store.size
             (Cache.store
                (Option.get (Aldsp.Dataspace.result_cache env.FC.ds)))));
    case "a registration bump strands the old fingerprint's entries"
      (fun () ->
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        ignore (add_customers_service env);
        let h = Aldsp.Dataspace.enable_result_cache env.FC.ds in
        let sess = Aldsp.Dataspace.session env.FC.ds in
        ignore (Xqse.Session.eval_to_string sess cq);
        ignore (Xqse.Session.eval_to_string sess cq);
        check_int "warm before the bump" 1 (counter instr Instr.K.cache_hit);
        (* registering anything bumps the session generation: the next
           read keys under a fresh fingerprint and recomputes *)
        Xqse.Session.register_function sess
          (Xdm.Qname.make ~uri:"urn:test" "ping")
          0
          (fun _ -> []);
        ignore (Xqse.Session.eval_to_string sess cq);
        check_int "post-bump read misses" 4 (counter instr Instr.K.cache_miss);
        check_int "no stale cross-generation hit" 1
          (counter instr Instr.K.cache_hit);
        check_int "old entries stranded, new ones admitted" 4
          (Cache.Store.size (Cache.store h)));
    case "a fork's registration strands only the fork's entries" (fun () ->
        (* the fork's cache view must read the fork's own generation —
           in a block body too, whose statements evaluate through the
           XQSE runtime's view rather than the query body's *)
        List.iter
          (fun (form, src) ->
            let instr = Instr.create () in
            Instr.preregister instr;
            Instr.enable instr;
            let env = FC.make ~customers:1 ~instr () in
            ignore (add_customers_service env);
            ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
            let sess = Aldsp.Dataspace.session env.FC.ds in
            let fork = Xqse.Session.with_config sess (Xqse.Session.config sess) in
            let read s =
              let hits = counter instr Instr.K.cache_hit
              and misses = counter instr Instr.K.cache_miss in
              ignore (Xqse.Session.eval_to_string s src);
              ( counter instr Instr.K.cache_hit - hits,
                counter instr Instr.K.cache_miss - misses )
            in
            ignore (read fork);
            check_bool (form ^ ": the fork's second read hits") true
              (fst (read fork) = 1);
            Xqse.Session.register_function fork
              (Xdm.Qname.make ~uri:"urn:test" "ping")
              0
              (fun _ -> []);
            let hits, misses = read fork in
            check_int (form ^ ": the fork misses after its registration") 0
              hits;
            check_bool (form ^ ": and recomputes") true (misses > 0);
            let hits, misses = read sess in
            check_int (form ^ ": the source still hits") 1 hits;
            check_int (form ^ ": without a miss") 0 misses)
          [ ("expression", cq); ("block", "{ return value " ^ cq ^ "; }") ]);
    case "a source and its fork that each register never share entries"
      (fun () ->
        (* generations are drawn process-wide: after one registration
           each, the source and its fork key their reads apart, so the
           fork never replays an entry computed over the source's
           document *)
        let instr = Instr.create () in
        Instr.preregister instr;
        Instr.enable instr;
        let env = FC.make ~customers:1 ~instr () in
        ignore
          (add_service env ~name:"Tagged" ~namespace:tagged_ns ~prefix:"tg"
             ~elem:"Tagged" ~fields:[ "CID"; "TAG" ] ~read:"getTagged"
             tagged_source);
        ignore (Aldsp.Dataspace.enable_result_cache env.FC.ds);
        let sess = Aldsp.Dataspace.session env.FC.ds in
        check_bool "the read's footprint is CUSTOMER alone" true
          (Aldsp.Dataspace.footprint_of env.FC.ds
             (Xdm.Qname.make ~uri:tagged_ns "getTagged")
             0
          = Some [ ("db1", "CUSTOMER") ]);
        let fork = Xqse.Session.with_config sess (Xqse.Session.config sess) in
        let tag s v =
          Xqse.Session.register_doc s "urn:tag"
            (Xdm.Xml_parse.parse (Printf.sprintf "<t>%s</t>" v))
        in
        tag sess "source";
        tag fork "fork";
        let read s =
          Xqse.Session.eval_to_string s
            "fn:string-join(tg:getTagged()/TAG, ',')"
        in
        check_string "the source reads its document" "source,source"
          (read sess);
        let hits = counter instr Instr.K.cache_hit in
        check_string "the fork reads its own" "fork,fork" (read fork);
        check_int "the fork hit nothing" hits (counter instr Instr.K.cache_hit);
        check_string "the source replays its entry" "source,source"
          (read sess);
        check_int "and hits it" (hits + 1) (counter instr Instr.K.cache_hit));
  ]

let suites =
  [
    ("cache.admission", admission_tests);
    ("cache.invalidation", invalidation_tests);
    ("cache.fingerprint", fingerprint_tests);
  ]
