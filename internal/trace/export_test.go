package trace

// ReaderNextSeeds exposes FuzzReaderNext's seed corpus to the external
// test package.
var ReaderNextSeeds = readerNextSeeds
