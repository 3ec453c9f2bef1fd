package apps

// InsertEntry exposes the registry's ordered insert to the external
// test package, which alone can populate the registry.
var InsertEntry = insertEntry
