module dagsfc/benchmark

go 1.22

require dagsfc v0.0.0

replace dagsfc => ../
