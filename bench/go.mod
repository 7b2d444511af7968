module bundler/bench

go 1.24

require bundler v0.0.0

replace bundler => ../
