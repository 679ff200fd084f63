module qunits/benchmark

go 1.24

require qunits v0.0.0

replace qunits => ../
