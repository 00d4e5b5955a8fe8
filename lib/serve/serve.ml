let counts_of_report = Exom_core.Pipeline.counts_of_report
