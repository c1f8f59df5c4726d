(* Aggregates every suite; each Test_* module exposes [suites]. *)
let () =
  Alcotest.run "sctbench_repro"
    (List.concat
       [
         Test_schedule_algebra.suites;
         Test_runtime.suites;
         Test_runtime_edge.suites;
         Test_race.suites;
         Test_explore.suites;
         (* forks, so it runs before any suite spawns a second domain *)
         Test_prefix_exec.suites;
         Test_strategy.suites;
         Test_programs_qcheck.suites;
         Test_engine_hot.suites;
         Test_bounding_axes.suites;
         Test_por.suites;
         Test_tools.suites;
         Test_hb.suites;
         Test_tso.suites;
         Test_paper_examples.suites;
         Test_sctbench.suites;
         Test_report.suites;
         Test_store.suites;
         Test_parallel.suites;
         Test_campaign.suites;
         Test_robustness.suites;
         Test_fuzz.suites;
         Test_corpus.suites;
         Test_cli_artifacts.suites;
       ])
