let () =
  Alcotest.run "xqse-repro"
    (Suite_xdm.suites @ Suite_xml.suites @ Suite_xquery.suites
   @ Suite_functions.suites @ Suite_update.suites @ Suite_optimizer.suites
   @ Suite_purity.suites @ Suite_differential.suites @ Suite_streaming.suites
   @ Suite_xqse.suites @ Suite_relational.suites @ Suite_sdo.suites
   @ Suite_aldsp.suites @ Suite_instr.suites @ Suite_resilience.suites @ Suite_integration.suites @ Suite_extensions.suites @ Suite_paper_ebnf.suites @ Suite_pretty.suites @ Suite_temporal.suites @ Suite_xmp.suites @ Suite_robustness.suites @ Suite_semantics.suites @ Suite_session.suites @ Suite_interactions.suites @ Suite_sqlgen.suites
   @ Suite_server.suites @ Suite_cache.suites @ Suite_keyed.suites
   @ Suite_rows.suites @ Suite_view_rows.suites @ Suite_alloc.suites
   @ Suite_wire.suites)
