package fastexec

// Partition is partition, for the stream's own test.
var Partition = partition
