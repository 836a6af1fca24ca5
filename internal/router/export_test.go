package router

// BinRelayWindow is the binary front's per-connection relay window, for tests
// that need to fill it.
const BinRelayWindow = binRelayWindow
