package network

// RegisteredNames lists the wire name of every registered message type.
func RegisteredNames() []string {
	var names []string
	for name := range wireReg.Load().byName {
		names = append(names, name)
	}
	return names
}
