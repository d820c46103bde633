module cycledger/bench

go 1.24

require cycledger v0.0.0

replace cycledger => ../
