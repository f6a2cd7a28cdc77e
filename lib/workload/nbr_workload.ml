(** Workload harness: trial runner, scheme×structure registry, and the
    experiment definitions that regenerate the paper's figures. *)

module Trial = Trial
module Registry = Registry
module Traffic = Traffic
module Cohort = Cohort
module Runner = Runner
module Harness = Harness
module Table = Table
module Experiments = Experiments
